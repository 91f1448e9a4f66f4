import numpy as np

from conftest import context_from_columns, float_poset_json, make_rng, random_poset, random_unitary

from qcontexts.coarse import (
    LatticeElement,
    clopen_iso_check,
    clopen_of,
    coarse_functoriality_check,
    coarse_grain,
    coarse_grain_bruteforce,
    element_projector,
    lattice,
    projector_restrictions,
    top,
)
from qcontexts.contexts import Context, ContextPoset, all_coarsenings, build_poset
from qcontexts.linalg import Projector


def diag_context(d):
    eye = np.eye(d)
    return Context([Projector.from_ray(eye[:, i], "float") for i in range(d)])


def test_element_projector_ranks():
    v = diag_context(3)
    assert element_projector(LatticeElement(v.id, 0), v).is_zero()
    assert element_projector(top(v), v).rank == 3
    assert element_projector(LatticeElement(v.id, 0b101), v).rank == 2


def test_lattice_enumeration():
    v = diag_context(3)
    elems = lattice(v)
    assert len(elems) == 8
    assert elems[0] == LatticeElement(v.id, 0) and elems[-1] == top(v)


def test_coarse_grain_matches_bruteforce_randomized():
    # the closed form must agree with the matrix-order infimum everywhere
    checked = 0
    for seed in range(40):
        rng = make_rng(seed)
        d = int(rng.integers(2, 5))
        poset = random_poset(rng, d)
        for sub, sup in poset.proper_pairs():
            for elem in lattice(poset.contexts[sup]):
                fast = coarse_grain(poset, elem, sub)
                slow = coarse_grain_bruteforce(poset, elem, sub)
                assert fast == slow
                checked += 1
    assert checked > 500


def test_coarse_grain_dominates_and_is_minimal():
    rng = make_rng(101)
    poset = random_poset(rng, 4)
    for sub, sup in poset.proper_pairs():
        vsup, vsub = poset.contexts[sup], poset.contexts[sub]
        for elem in lattice(vsup):
            out = coarse_grain(poset, elem, sub)
            p = element_projector(elem, vsup)
            q = element_projector(out, vsub)
            assert p.leq(q)


def test_functoriality_on_random_posets():
    for seed in range(10):
        poset = random_poset(make_rng(seed + 200), 4)
        report = coarse_functoriality_check(poset)
        assert report["ok"], report


def functoriality_reference(poset):
    """The check as a nested loop over all pairs of order pairs."""
    chains = 0
    for v3, v2 in poset.proper_pairs():
        for v2b, v1 in poset.proper_pairs():
            if v2b != v2:
                continue
            chains += 1
            for elem in lattice(poset.contexts[v1]):
                direct = coarse_grain(poset, elem, v3)
                stepped = coarse_grain(poset, coarse_grain(poset, elem, v2), v3)
                if direct != stepped:
                    return {"ok": False, "chains_checked": chains,
                            "counterexample": {"chain": [v3, v2, v1], "mask": elem.mask,
                                               "direct": direct.mask, "stepped": stepped.mask}}
    return {"ok": True, "chains_checked": chains, "counterexample": None}


def test_functoriality_matches_nested_loop_reference():
    posets = [random_poset(make_rng(seed + 200), 4) for seed in range(10)]
    # every coarsening of one basis in d = 5: chains whose bottom is not
    # trivial and whose middle has two contexts above it
    posets.append(build_poset(all_coarsenings(context_from_columns(random_unitary(make_rng(1), 5)))))
    broken = 0
    for poset in posets:
        assert coarse_functoriality_check(poset) == functoriality_reference(poset)
        # break the map of a middle pair whose top has two contexts above
        # it, so that chains fail in both roles and order decides which
        # failure is reported first
        pairs = poset.proper_pairs()
        breakable = [(sub, sup) for sub, sup in pairs if poset.contexts[sub].n_atoms > 1
                     and sum(1 for a, _ in pairs if a == sup) >= 2]
        if not breakable:
            continue
        sub, sup = breakable[len(breakable) // 2]
        restriction = dict(poset.restriction)
        rmap = list(restriction[(sub, sup)])
        rmap[0] = (rmap[0] + 1) % poset.contexts[sub].n_atoms
        restriction[(sub, sup)] = tuple(rmap)
        bad = ContextPoset(poset.contexts, poset.leq, poset.down, restriction, poset.bottom_id)
        report = coarse_functoriality_check(bad)
        assert not report["ok"] and report == functoriality_reference(bad)
        broken += 1
    assert broken == 1


def test_clopen_sets_biject_with_lattice():
    v = diag_context(3)
    seen = {clopen_of(e, v) for e in lattice(v)}
    assert len(seen) == 8


def test_clopen_iso_on_random_posets():
    for seed in range(6):
        poset = random_poset(make_rng(seed + 300), 3)
        report = clopen_iso_check(poset, projector_restrictions(poset))
        assert report["ok"], report


def test_projector_restrictions_decide_each_atom_pair_once(tmp_path, monkeypatch):
    poset = ContextPoset.from_json(float_poset_json(501, str(tmp_path)))
    asked = []
    leq = Projector.leq

    def counting_leq(self, other):
        asked.append((self.key_bytes, other.key_bytes))
        return leq(self, other)

    monkeypatch.setattr(Projector, "leq", counting_leq)
    maps = projector_restrictions(poset)
    # 7,180 calls for these 995 distinct pairs before the memo
    assert len(asked) == len(set(asked)) == 995
    assert maps == {pair: poset.restriction[pair] for pair in poset.proper_pairs()}


def test_clopen_iso_detects_corrupted_maps():
    poset = random_poset(make_rng(77), 3)
    maps = projector_restrictions(poset)
    # wrong on purpose: one atom of one map sent to another atom below
    pair = next(p for p in poset.proper_pairs() if poset.contexts[p[0]].n_atoms > 1)
    rmap = list(maps[pair])
    i = len(rmap) - 1
    rmap[i] = (rmap[i] + 1) % poset.contexts[pair[0]].n_atoms
    maps[pair] = tuple(rmap)
    report = clopen_iso_check(poset, maps)
    assert not report["ok"]
    assert report["counterexample"] == {
        "morphism": list(pair), "mask": 1 << i,
        "coarse_route": [poset.restriction[pair][i]], "action_route": [rmap[i]]}
