"""Each presheaf-law check against a broken input it must catch, and the
cover checks against the all-pairs loops they replace."""

from fractions import Fraction

import pytest

from conftest import make_rng, random_density, random_poset

from qcontexts.coarse import (
    clopen_iso_check,
    coarse_functoriality_check,
    lattice,
    projector_restrictions,
)
from qcontexts.contexts import (
    Context,
    ContextPoset,
    all_coarsenings,
    build_poset,
    check_state_global_element,
)
from qcontexts.intervals import (
    ProjectorFamily,
    check_coarse_subobject,
    check_semantic_subobject,
    probability_family,
)
from qcontexts.ks import load_rayset, poset_from_rayset
from qcontexts.linalg import DensityMatrix, Projector
from qcontexts.valuations import (
    ValuationTable,
    check_valuation,
    natural_transformation_check,
    presheaf_tables,
    valuation_table,
)


def reversed_ks18_map():
    """ks18 with one basis -> meet map changed from (1, 1, 0, 1) to
    (1, 0, 1, 1): still a surjection onto the meet's two atoms, and still
    functorial, but not the map the projectors give."""
    poset = poset_from_rayset(load_rayset("ks18"))
    pair = next(k for k, rmap in sorted(poset.restriction.items()) if rmap == (1, 1, 0, 1))
    restriction = dict(poset.restriction)
    restriction[pair] = (1, 0, 1, 1)
    return ContextPoset(poset.contexts, poset.leq, poset.down, restriction, poset.bottom_id), pair


@pytest.mark.parametrize("rho", [
    DensityMatrix.maximally_mixed(4, "exact"),
    DensityMatrix.from_diag([Fraction(k, 10) for k in (1, 2, 3, 4)], "exact"),
], ids=["maximally-mixed", "diag-1-2-3-4"])
def test_reversed_restriction_map_fails_naturality_and_clopen(rho):
    bad, pair = reversed_ks18_map()
    table = valuation_table(presheaf_tables(rho, bad, 1))
    nat = natural_transformation_check(table, projector_restrictions(bad))
    assert not nat["ok"] and nat["counterexample"]["morphism"] == list(pair)
    clopen = clopen_iso_check(bad, projector_restrictions(bad))
    assert not clopen["ok"] and clopen["counterexample"]["morphism"] == list(pair)
    # functoriality and functional composition read the tables, which still
    # agree with each other
    assert coarse_functoriality_check(bad)["ok"]
    assert check_valuation(table)["functional_composition"]["ok"]


def diag3_poset():
    eye = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    v = Context([Projector.from_ray(row, "exact") for row in eye])
    return build_poset(all_coarsenings(v))


def test_flipped_sieve_fails_composition_and_naturality():
    poset = diag3_poset()
    table = valuation_table(presheaf_tables(DensityMatrix.maximally_mixed(3, "exact"), poset, 1))
    rmaps = projector_restrictions(poset)
    assert check_valuation(table)["ok"] and natural_transformation_check(table, rmaps)["ok"]
    # a two-atom stage sits above the bottom and below the maximal stage
    stage = next(cid for cid in poset.ids() if poset.contexts[cid].n_atoms == 2)
    maps = {cid: list(stage_map) for cid, stage_map in table.maps.items()}
    maps[stage][1] ^= 1 << poset.ids().index(poset.bottom_id)
    bad = ValuationTable(table.tables, maps)
    assert not check_valuation(bad)["functional_composition"]["ok"]
    assert not natural_transformation_check(bad, rmaps)["ok"]


def dropped_atom(poset, cid, i):
    """The poset with stage cid's context replaced by its atoms without atom
    i, under the same id (the loaders reject such a context, since its atoms
    no longer sum to the identity). Its restriction maps, the reflexive pair
    included, lose atom i and renumber the atoms after it. cid must be
    maximal: no stage above it may map an atom into atom i."""
    old = poset.contexts[cid]
    ctx = Context([a for j, a in enumerate(old.atoms) if j != i], validate=False)
    ctx.id = cid
    restriction = dict(poset.restriction)
    for (sub, sup), rmap in poset.restriction.items():
        if sup == cid:
            kept = rmap[:i] + rmap[i + 1:]
            restriction[(sub, sup)] = (tuple(k - (k > i) for k in kept) if sub == cid
                                       else kept)
    contexts = dict(poset.contexts)
    contexts[cid] = ctx
    return ContextPoset(contexts, poset.leq, poset.down, restriction, poset.bottom_id)


def test_dropped_atom_fails_unit_and_state_global_element():
    poset = diag3_poset()
    top_id = poset.maximal_ids()[0]
    bad = dropped_atom(poset, top_id, 0)
    assert bad.restriction[(top_id, top_id)] == (0, 1)
    tables = presheaf_tables(DensityMatrix.maximally_mixed(3, "exact"), bad, 1)
    assert sum(tables.weights[top_id]) == Fraction(2, 3)
    table = valuation_table(tables)
    axioms = check_valuation(table)
    unit = axioms["unit_proposition"]
    assert not unit["ok"] and unit["counterexample"]["stage"] == top_id
    assert top_id not in unit["counterexample"]["sieve"]
    assert not check_state_global_element(tables.weights, bad)
    # every other law holds: the tables agree with each other and with the
    # projectors of the mutant, and the family is empty at its stage
    rmaps = projector_restrictions(bad)
    family = probability_family(tables)
    coarse = check_coarse_subobject(family, tables)
    assert [name for name, law in axioms.items() if name != "ok" and not law["ok"]] == [
        "unit_proposition"]
    assert natural_transformation_check(table, rmaps)["ok"]
    assert clopen_iso_check(bad, rmaps)["ok"]
    assert coarse_functoriality_check(bad)["ok"]
    assert coarse["ok"] and not coarse["equality"]
    assert check_semantic_subobject(family, coarse, bad)["ok"]


def monotonicity_reference(table) -> bool:
    """Monotonicity over all 4^k pairs of each stage's lattice."""
    for cid in table.poset.ids():
        elems = lattice(table.poset.contexts[cid])
        for p in elems:
            for q in elems:
                if p.mask & q.mask == p.mask and table.sieve(p) & ~table.sieve(q):
                    return False
    return True


def upper_set_reference(family, poset) -> bool:
    """Upward closure over all 4^k pairs of each stage's lattice."""
    for cid in poset.ids():
        for p in family.masks[cid]:
            for q in range(1 << poset.contexts[cid].n_atoms):
                if p & q == p and q not in family.masks[cid]:
                    return False
    return True


def is_cover(p: int, q: int) -> bool:
    diff = q ^ p
    return p & q == p and diff != 0 and diff & (diff - 1) == 0


def test_cover_checks_match_all_pairs_reference():
    broken_tables = broken_families = 0
    for seed in range(10):
        rng = make_rng(seed + 700)
        d = int(rng.integers(2, 5))
        poset = random_poset(rng, d)
        rho = random_density(rng, d)
        tables = presheaf_tables(rho, poset, 0.6)
        table = valuation_table(tables)
        family = probability_family(tables)
        ids = poset.ids()
        for trial in range(6):
            maps = {cid: list(stage_map) for cid, stage_map in table.maps.items()}
            masks = dict(family.masks)
            if trial:  # trial 0 checks the intact table and family
                cid = ids[int(rng.integers(len(ids)))]
                mask = int(rng.integers(1 << poset.contexts[cid].n_atoms))
                maps[cid][mask] = table.down[cid] if trial % 2 else 0
                masks[cid] = masks[cid] ^ {mask}
            bad = ValuationTable(tables, maps)
            mono = check_valuation(bad)["monotonicity"]
            assert mono["ok"] == monotonicity_reference(bad)
            if not mono["ok"]:
                broken_tables += 1
                cx = mono["counterexample"]
                assert is_cover(cx["p"], cx["q"])
                assert maps[cx["stage"]][cx["p"]] & ~maps[cx["stage"]][cx["q"]]
            fam = ProjectorFamily(masks)
            semantic = check_semantic_subobject(fam, check_coarse_subobject(fam, tables), poset)
            upper = semantic["monotonicity"]
            assert upper["ok"] == upper_set_reference(fam, poset)
            if not upper["ok"]:
                broken_families += 1
                cx = upper["counterexample"]
                assert is_cover(cx["p"], cx["q"])
                assert cx["p"] in masks[cx["stage"]] and cx["q"] not in masks[cx["stage"]]
    assert broken_tables >= 5 and broken_families >= 5
