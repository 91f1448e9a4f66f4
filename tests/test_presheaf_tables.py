"""The presheaf layers driven by one set of presheaf tables, against the
per-element, per-square loops they replaced.

`valuation_table`, the square walk behind `check_valuation` and
`natural_transformation_check`, `probability_family` and
`check_coarse_subobject` decide each (stage, mask) weight once and read
each morphism's images from one array. The references below coarse-grain
every element into every lower stage with `coarse_grain` or `image_mask`,
one at a time, as the code did before. `clopen_iso_check` compares the
atom maps atom by atom; its reference compares their image arrays mask by
mask.
"""

import json
from fractions import Fraction

import pytest

from conftest import float_workload, make_rng, random_density, random_poset, sieve_members

from qcontexts import coarse
from qcontexts.cli import main
from qcontexts.coarse import (
    LatticeElement,
    clopen_iso_check,
    clopen_of,
    coarse_grain,
    image_mask,
    image_masks,
    lattice,
    projector_restrictions,
)
from qcontexts.contexts import ContextPoset, all_coarsenings, build_poset
from qcontexts.intervals import (
    CoarseGlobalElement,
    _true_set_infimum,
    check_coarse_subobject,
    global_element_from_valuation,
    probability_family,
)
from qcontexts.ks import load_rayset, poset_from_rayset
from qcontexts.linalg import DensityMatrix, ValidationError, get_eps
from qcontexts.scalars import QSqrt2
from qcontexts.valuations import (
    ValuationTable,
    check_valuation,
    natural_transformation_check,
    presheaf_tables,
    stage_weights,
    valuation_table,
)

THRESHOLDS = [1, Fraction(3, 5), Fraction(3, 10)]


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------


def _mask_weight(weights, mask: int):
    total = 0
    i = 0
    while mask:
        if mask & 1:
            total = weights[i] + total
        mask >>= 1
        i += 1
    return total


def _at_least(value, r, backend: str) -> bool:
    if backend == "exact":
        rq = r if isinstance(r, (QSqrt2,)) else QSqrt2(Fraction(r) if not isinstance(r, float)
                                                       else Fraction(r).limit_denominator(10**9))
        v = value if isinstance(value, QSqrt2) else QSqrt2(value)
        return v >= rq
    return float(value) >= float(r) - get_eps()


def sieve_sets(table):
    """The table's sieves as sets of context ids, by stage and mask."""
    return {cid: [sieve_members(table.poset, s) for s in stage]
            for cid, stage in table.maps.items()}


def valuation_table_reference(rho, poset, r):
    """The sieves of every stage, as sets of context ids: one sieve per
    element, one weight decision per square, each sieve checked to be a
    lower set."""
    weights = stage_weights(rho, poset)
    maps = {}
    for cid in poset.ids():
        stage_map = []
        for elem in lattice(poset.contexts[cid]):
            sieve = set()
            for sub in poset.below(cid):
                coarse = coarse_grain(poset, elem, sub)
                if _at_least(_mask_weight(weights[sub], coarse.mask), r, poset.backend):
                    sieve.add(sub)
            if any(w not in sieve for m in sieve for w in poset.below(m)):
                raise ValidationError("sieve is not a lower set")
            stage_map.append(frozenset(sieve))
        maps[cid] = stage_map
    return maps


def first_failing_square_reference(table, restriction):
    """(squares visited, first failing (sub, sup, mask, pulled, assigned)),
    on sieves as sets of context ids."""
    poset = table.poset
    squares = 0
    for sub, sup in poset.proper_pairs():
        below_sub = set(poset.below(sub))
        for mask in range(1 << poset.contexts[sup].n_atoms):
            squares += 1
            pulled = sieve_members(poset, table.maps[sup][mask]) & below_sub
            image = image_mask(restriction[(sub, sup)], mask)
            assigned = sieve_members(poset, table.maps[sub][image])
            if pulled != assigned:
                return squares, (sub, sup, mask, pulled, assigned)
    return squares, None


def clopen_iso_reference(poset, maps):
    """The clopen check as a stagewise bijection of lattice elements and
    clopen sets, then per morphism the image array of the restriction table
    against that of ``maps``, mask by mask."""
    for cid in poset.ids():
        v = poset.contexts[cid]
        assert len({clopen_of(elem, v) for elem in lattice(v)}) == 1 << v.n_atoms
    for sub, sup in poset.proper_pairs():
        target = poset.contexts[sub]
        n = poset.contexts[sup].n_atoms
        via_coarse = image_masks(poset.restriction[(sub, sup)], n)
        via_action = image_masks(maps[(sub, sup)], n)
        if via_coarse != via_action:
            m = next(m for m, (c, a) in enumerate(zip(via_coarse, via_action)) if c != a)
            routes = [sorted(f.index for f in clopen_of(LatticeElement(sub, img[m]), target))
                      for img in (via_coarse, via_action)]
            return {"ok": False, "counterexample": {
                "morphism": [sub, sup], "mask": m,
                "coarse_route": routes[0], "action_route": routes[1]}}
    return {"ok": True, "stages_checked": len(poset),
            "morphisms_checked": len(poset.proper_pairs()), "counterexample": None}


def coarse_subobject_reference(family, poset):
    """Per-morphism containment and equality, one `coarse_grain` per mask."""
    morphisms = []
    for sub, sup in poset.proper_pairs():
        image = frozenset(coarse_grain(poset, LatticeElement(sup, m), sub).mask
                          for m in family.masks[sup])
        morphisms.append({"morphism": [sub, sup], "containment": image <= family.masks[sub],
                          "equality": image == family.masks[sub]})
    return {"ok": all(m["containment"] for m in morphisms),
            "equality": all(m["equality"] for m in morphisms), "morphisms": morphisms}


def global_element_reference(table, poset):
    """The true-set infima and the first morphism that does not coarse-grain
    one onto the other."""
    choices = {cid: _true_set_infimum(table, cid) for cid in poset.ids()}
    for sub, sup in poset.proper_pairs():
        expected = coarse_grain(poset, LatticeElement(sup, choices[sup]), sub).mask
        if choices[sub] != expected:
            return None, {"ok": False, "violating_morphism": [sub, sup],
                          "infimum_above": choices[sup], "infimum_below": choices[sub],
                          "coarse_grained_above": expected}
    return CoarseGlobalElement(choices), {"ok": True, "violating_morphism": None}


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def rotated_map(poset):
    """The poset with the atom map of its first proper pair that has one
    rotated by a place: the same image set, but not the map the projectors
    give. On ks18 this is the (1, 1, 0, 1) -> (1, 0, 1, 1) change of
    test_law_checks. None when every map is constant, as into the trivial
    context."""
    pair = next((p for p in poset.proper_pairs() if len(set(poset.restriction[p])) > 1), None)
    if pair is None:
        return None
    restriction = dict(poset.restriction)
    restriction[pair] = restriction[pair][1:] + restriction[pair][:1]
    return ContextPoset(poset.contexts, poset.leq, poset.down, restriction, poset.bottom_id)


def corrupted(maps, poset):
    """The atom maps with the last atom of the first proper pair whose lower
    stage has two atoms or more sent to the next atom there. None when every
    such stage has one atom, as on the d = 2 posets."""
    pair = next((p for p in poset.proper_pairs() if poset.contexts[p[0]].n_atoms > 1), None)
    if pair is None:
        return None
    rmap = list(maps[pair])
    rmap[-1] = (rmap[-1] + 1) % poset.contexts[pair[0]].n_atoms
    return {**maps, pair: tuple(rmap)}


def flipped(table, rng):
    """The table with one context toggled in one sieve: a context below the
    stage, at a random stage and mask."""
    poset = table.poset
    ids = poset.ids()
    cid = ids[int(rng.integers(len(ids)))]
    mask = int(rng.integers(1 << poset.contexts[cid].n_atoms))
    below = poset.below(cid)
    member = below[int(rng.integers(len(below)))]
    maps = {c: list(stage_map) for c, stage_map in table.maps.items()}
    maps[cid][mask] ^= 1 << ids.index(member)
    return ValuationTable(table.tables, maps)


def ks18_coarsenings():
    poset = poset_from_rayset(load_rayset("ks18"))
    gens = [c for cid in poset.maximal_ids() for c in all_coarsenings(poset.contexts[cid])]
    return build_poset(gens)


CASES = [f"float-{seed}" for seed in range(10)] + ["ks18-coarsenings", "ks18"]


def case(name):
    """One of the ten random float posets of the law checks, or an exact ks18
    poset (its coarsenings, or its bases and their meets, whose rotated map
    is the reversed map of test_law_checks); with a state and a generator
    for flips."""
    if name.startswith("ks18"):
        rho = DensityMatrix.from_diag([Fraction(k, 10) for k in (1, 2, 3, 4)], "exact")
        poset = ks18_coarsenings() if name == "ks18-coarsenings" else poset_from_rayset(
            load_rayset("ks18"))
        return poset, rho, make_rng(17)
    rng = make_rng(int(name.split("-")[1]) + 700)
    d = int(rng.integers(2, 5))
    return random_poset(rng, d), random_density(rng, d), rng


def built_or_error(fn, *args):
    try:
        return fn(*args)
    except ValidationError as exc:
        return repr(exc)


def assert_square_reports_match(table, maps):
    """The functional-composition and naturality reports name the first
    failing square of the references, and count the same squares; ``maps``
    are the projector maps of the table's poset. Returns whether each check
    failed."""
    poset = table.poset
    _, square = first_failing_square_reference(table, poset.restriction)
    composition = check_valuation(table)["functional_composition"]
    assert composition["ok"] == (square is None)
    if square is not None:
        sub, sup, mask, pulled, assigned = square
        assert composition["counterexample"] == {
            "morphism": [sub, sup], "mask": mask,
            "valuation_of_coarse": sorted(assigned), "pullback": sorted(pulled)}
    squares, square = first_failing_square_reference(table, maps)
    nat = natural_transformation_check(table, maps)
    assert nat["ok"] == (square is None) and nat["squares_checked"] == squares
    if square is not None:
        sub, sup, mask, pulled, assigned = square
        assert nat["counterexample"] == {
            "morphism": [sub, sup], "mask": mask,
            "pulled": sorted(pulled), "assigned": sorted(assigned)}
    assert global_element_from_valuation(table, poset) == global_element_reference(table, poset)
    return not composition["ok"], not nat["ok"]


@pytest.mark.parametrize("name", CASES)
def test_tables_and_reports_match_references(name):
    poset, rho, rng = case(name)
    maps = projector_restrictions(poset)
    bad = rotated_map(poset)  # None on the d = 2 posets, whose maps are all constant
    assert clopen_iso_check(poset, maps) == clopen_iso_reference(poset, maps)
    assert clopen_iso_check(poset, maps)["ok"]
    wrong = corrupted(maps, poset)  # None exactly when bad is
    assert (wrong is None) == (bad is None)
    if bad is not None:
        assert clopen_iso_check(poset, wrong) == clopen_iso_reference(poset, wrong)
        assert not clopen_iso_check(poset, wrong)["ok"]
        assert clopen_iso_check(bad, maps) == clopen_iso_reference(bad, maps)
        assert not clopen_iso_check(bad, maps)["ok"]
    failures = {"intact": set(), "rotated": set(), "flipped": set()}
    for r in THRESHOLDS:
        tables = presheaf_tables(rho, poset, r)
        table = valuation_table(tables)
        assert sieve_sets(table) == valuation_table_reference(rho, poset, r)
        variants = [("intact", table), ("flipped", flipped(table, rng))]
        tables_bad = None if bad is None else presheaf_tables(rho, bad, r)
        if bad is not None:
            # on the rotated map a sieve may stop being a lower set; then both raise
            assert (built_or_error(lambda: sieve_sets(valuation_table(tables_bad)))
                    == built_or_error(lambda: valuation_table_reference(rho, bad, r)))
            variants.append(("rotated", ValuationTable(tables_bad, table.maps)))
        for variant, t in variants:
            composition, naturality = assert_square_reports_match(t, maps)
            failures[variant] |= {"composition"} if composition else set()
            failures[variant] |= {"naturality"} if naturality else set()
        family = probability_family(tables)
        for t in (tables, tables_bad) if bad is not None else (tables,):
            assert check_coarse_subobject(family, t) == coarse_subobject_reference(family, t.poset)
    # the intact table passes both; the rotated map fails composition only,
    # since the table agrees with the projectors
    assert failures["intact"] == set()
    assert failures["rotated"] == (set() if bad is None else {"composition"})
    assert failures["flipped"]


@pytest.mark.parametrize("name", CASES)
def test_truth_tables_match_per_mask_sums(name):
    """Each stage's truth table is the per-mask sum and comparison of the
    old helpers, bit for bit, also at float thresholds on the exact ks18
    posets, where masks weigh exactly 1/5, 3/10, 2/5 and 7/10 (the float
    0.2 and 0.4 lie above 1/5 and 2/5, the float 0.3 and 0.7 below 3/10 and
    7/10)."""
    poset, rho, _ = case(name)
    weights = stage_weights(rho, poset)
    for r in THRESHOLDS + [0.2, 0.3, 0.4, 0.7, QSqrt2(Fraction(1, 2))]:
        truth = presheaf_tables(rho, poset, r).truth
        assert truth == {cid: [_at_least(_mask_weight(w, m), r, poset.backend)
                               for m in range(1 << len(w))] for cid, w in weights.items()}


@pytest.mark.parametrize("name", CASES)
def test_sieve_and_family_share_truth_tables(name):
    """At every stage, a stage is in its own sieve of a mask iff the mask is
    in the probability family there."""
    poset, rho, _ = case(name)
    for r in THRESHOLDS:
        tables = presheaf_tables(rho, poset, r)
        table = valuation_table(tables)
        family = probability_family(tables)
        for cid in poset.ids():
            for m in range(1 << poset.contexts[cid].n_atoms):
                in_sieve = cid in sieve_members(poset, table.maps[cid][m])
                assert in_sieve == (m in family.masks[cid])


def test_image_masks_match_image_mask():
    for rmap in [(0,), (1, 0, 1), (2, 0, 1, 0), (0, 0, 0, 0, 1)]:
        img = image_masks(rmap, len(rmap))
        assert img == [image_mask(rmap, m) for m in range(1 << len(rmap))]


def test_verify_axioms_builds_one_image_array_per_distinct_map(tmp_path, monkeypatch):
    """The poset's maps and the projector maps of naturality share one array
    per distinct map: 77 arrays for the 1,089 proper pairs of the seed-501
    benchmark poset."""
    path, psi = float_workload(501, str(tmp_path))
    built = []
    real = coarse.image_masks
    monkeypatch.setattr(coarse, "image_masks",
                        lambda rmap, size: built.append(rmap) or real(rmap, size))
    assert main(["verify-axioms", "--poset", path, "--state", psi,
                 "--output", str(tmp_path / "out.json")]) == 0
    with open(path) as fh:
        poset = ContextPoset.from_json(json.load(fh))
    distinct = {poset.restriction[pair] for pair in poset.proper_pairs()}
    assert len(poset.proper_pairs()) == 1089
    assert sorted(built) == sorted(distinct) and len(built) == 77
