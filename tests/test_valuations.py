from fractions import Fraction

import numpy as np
import pytest

from conftest import make_rng, random_density, random_poset, sieve_members

from qcontexts.coarse import LatticeElement, lattice, projector_restrictions, top
from qcontexts.contexts import Context, all_coarsenings, build_poset
from qcontexts.linalg import DensityMatrix, Projector, ValidationError
from qcontexts.valuations import (
    ValuationTable,
    check_valuation,
    natural_transformation_check,
    _down_masks,
    presheaf_tables,
    valuation_table,
)


def diag_poset(d: int, backend: str = "exact"):
    eye = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    v = Context([Projector.from_ray(eye[i], backend) for i in range(d)])
    return v, build_poset(all_coarsenings(v))


def mask_of(v: Context, proj: Projector) -> int:
    mask = 0
    for i, a in enumerate(v.atoms):
        if a.leq(proj):
            mask |= 1 << i
    return mask


def test_principal_sieve_is_the_down_set():
    _, poset = diag_poset(3)
    for stage in poset.ids():
        assert sieve_members(poset, _down_masks(poset)[stage]) == set(poset.below(stage))


def test_pullback_intersects_downset():
    _, poset = diag_poset(3)
    stage = max(poset.ids(), key=lambda c: poset.contexts[c].n_atoms)
    s = _down_masks(poset)[stage]
    for target in poset.below(stage):
        t = s & _down_masks(poset)[target]
        assert t == _down_masks(poset)[target]


def test_all_zero_image_array_is_not_a_lower_set():
    """A mutant image array that sends every element of the maximal stage
    to the zero element of a two-atom stage below it. That stage drops out
    of every sieve at the maximal stage, so the sieve of the top element
    holds the maximal stage but not a context below it."""
    _, poset = diag_poset(3)
    stage = max(poset.ids(), key=lambda c: poset.contexts[c].n_atoms)
    sub = next(c for c in poset.below(stage) if poset.contexts[c].n_atoms == 2)
    tables = presheaf_tables(DensityMatrix.maximally_mixed(3, "exact"), poset, 1)
    valuation_table(tables)
    tables.images[(sub, stage)] = [0] * len(tables.images[(sub, stage)])
    with pytest.raises(ValidationError, match="sieve is not a lower set"):
        valuation_table(tables)


def test_probability_one_valuation_pure_state():
    # pure state on e0; the sieve of P0's complement-partner elements
    v, poset = diag_poset(3)
    rho = DensityMatrix.pure([1, 0, 0], "exact")
    p0 = Projector.from_ray([1, 0, 0], "exact")
    elem = LatticeElement(v.id, mask_of(v, p0))
    sieve = valuation_table(presheaf_tables(rho, poset, 1)).sieve(elem)
    # true wherever the coarse-graining of P0 keeps probability 1: everywhere
    # below v whose coarse atom containing e0 has weight 1 -- all of them
    assert sieve == _down_masks(poset)[v.id]
    # an atom orthogonal to the state is true only where coarse-graining
    # merges it with e0: the {e0+e1, e2} context and the bottom
    p1 = Projector.from_ray([0, 1, 0], "exact")
    sieve1 = valuation_table(presheaf_tables(rho, poset, 1)).sieve(
        LatticeElement(v.id, mask_of(v, p1)))
    p01 = Projector.from_span([[1, 0, 0], [0, 1, 0]], "exact")
    merged = Context([p01, Projector.from_ray([0, 0, 1], "exact")])
    assert sieve_members(poset, sieve1) == {merged.id, poset.bottom_id}
    # while at its own stage the atom is false (not in the sieve)
    assert v.id not in sieve_members(poset, sieve1)


def test_probability_one_valuation_partial_sieve():
    # mixed diagonal state: P0+P1 has weight 1 but P0 alone does not;
    # contexts merging e0 with e1 assign their coarse-grained P0 prob 1
    v, poset = diag_poset(3)
    rho = DensityMatrix.from_diag([Fraction(1, 2), Fraction(1, 2), 0], "exact")
    p0 = Projector.from_ray([1, 0, 0], "exact")
    elem = LatticeElement(v.id, mask_of(v, p0))
    sieve = valuation_table(presheaf_tables(rho, poset, 1)).sieve(elem)
    p01 = Projector.from_span([[1, 0, 0], [0, 1, 0]], "exact")
    expected = set()
    for cid in poset.below(v.id):
        ctx = poset.contexts[cid]
        # the coarse-graining of P0 at cid is the atom-sum covering it
        cover = [a for a in ctx.atoms if not (a.matrix @ p0.matrix).is_zero()]
        total = cover[0]
        for a in cover[1:]:
            total = Projector(total.matrix + a.matrix, validate=False)
        if p01.leq(total) or total.rank == 3:
            expected.add(cid)
    assert sieve_members(poset, sieve) == {
        cid for cid in expected
        if float(sum((rho.matrix @ a.matrix).real_trace()
                     for a in poset.contexts[cid].atoms
                     if not (a.matrix @ p0.matrix).is_zero())) == 1.0
    }


def test_valuation_axioms_random_states_r1():
    for seed in range(12):
        rng = make_rng(seed + 400)
        d = int(rng.integers(2, 5))
        poset = random_poset(rng, d)
        rho = random_density(rng, d)
        table = valuation_table(presheaf_tables(rho, poset, 1))
        report = check_valuation(table)
        assert report["ok"], report
        nat = natural_transformation_check(table, projector_restrictions(poset))
        assert nat["ok"], nat


@pytest.mark.parametrize("r", [0.6, 0.8])
def test_threshold_valuations_keep_core_axioms(r):
    for seed in range(8):
        rng = make_rng(seed + 500)
        poset = random_poset(rng, 3)
        rho = random_density(rng, 3)
        table = valuation_table(presheaf_tables(rho, poset, r))
        report = check_valuation(table, require_unit=True)
        assert report["functional_composition"]["ok"]
        assert report["null_proposition"]["ok"]
        assert report["monotonicity"]["ok"]
        assert report["unit_proposition"]["ok"]


def test_exclusivity_fails_below_half():
    # two disjoint atoms both reach probability 0.3
    v, poset = diag_poset(3)
    rho = DensityMatrix.from_diag(
        [Fraction(2, 5), Fraction(2, 5), Fraction(1, 5)], "exact")
    table = valuation_table(presheaf_tables(rho, poset, Fraction(3, 10)))
    report = check_valuation(table)
    assert not report["exclusivity"]["ok"]
    cx = report["exclusivity"]["counterexample"]
    stage = poset.contexts[cx["stage"]]
    wp = (rho.matrix @ sum_mask(stage, cx["p"]).matrix).real_trace()
    wq = (rho.matrix @ sum_mask(stage, cx["q"]).matrix).real_trace()
    assert float(wp) >= 0.3 and float(wq) >= 0.3
    assert cx["p"] & cx["q"] == 0
    # the canonical witness: at the maximal stage, the two weight-2/5 atoms
    # are each fully true, violating exclusivity
    true_v = _down_masks(poset)[v.id]
    heavy = [i for i, a in enumerate(v.atoms)
             if float((rho.matrix @ a.matrix).real_trace()) == 0.4]
    assert len(heavy) == 2
    for i in heavy:
        elem = LatticeElement(v.id, 1 << i)
        assert table.sieve(elem) == true_v


def sum_mask(v: Context, mask: int):
    from qcontexts.coarse import element_projector

    return element_projector(LatticeElement(v.id, mask), v)


def test_r_out_of_range_rejected():
    v, poset = diag_poset(2)
    rho = DensityMatrix.maximally_mixed(2, "exact")
    for bad in (0, -0.5, 1.5):
        with pytest.raises(ValidationError):
            presheaf_tables(rho, poset, bad)


def test_naturality_check_counts_all_squares():
    _, poset = diag_poset(3)
    rho = DensityMatrix.maximally_mixed(3, "exact")
    table = valuation_table(presheaf_tables(rho, poset, 1))
    nat = natural_transformation_check(table, projector_restrictions(poset))
    expected = sum(
        1 << poset.contexts[sup].n_atoms for _, sup in poset.proper_pairs()
    )
    assert nat["squares_checked"] == expected


def test_unit_condition_at_every_stage():
    rng = make_rng(601)
    poset = random_poset(rng, 3)
    rho = random_density(rng, 3)
    table = valuation_table(presheaf_tables(rho, poset, 1))
    for cid in poset.ids():
        assert table.sieve(top(poset.contexts[cid])) == _down_masks(poset)[cid]


def test_null_failure_does_not_hide_unit_failures():
    poset = random_poset(make_rng(1), 3)
    table = valuation_table(presheaf_tables(DensityMatrix.maximally_mixed(3, "float"), poset, 1))
    ids = poset.ids()
    first, last = ids[0], ids[-1]
    maps = {cid: list(stage_map) for cid, stage_map in table.maps.items()}
    maps[first][0] = 1 << ids.index(first)
    maps[last][(1 << poset.contexts[last].n_atoms) - 1] = 0
    report = check_valuation(ValuationTable(table.tables, maps))
    assert report["null_proposition"] == {"ok": False, "counterexample": {"stage": first}}
    assert report["unit_proposition"] == {
        "ok": False, "counterexample": {"stage": last, "sieve": []}, "checked": True}
    # with two stages failing unit, the first is reported
    maps[ids[1]][(1 << poset.contexts[ids[1]].n_atoms) - 1] = 0
    report = check_valuation(ValuationTable(table.tables, maps))
    assert report["unit_proposition"]["counterexample"]["stage"] == ids[1]
