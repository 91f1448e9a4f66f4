from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    context_from_columns,
    coarsen_columns,
    make_rng,
    random_density,
    random_poset,
    random_unitary,
    rotate_pair,
)

from qcontexts.contexts import (
    Context,
    ContextPoset,
    SpectralFunctional,
    StateOnContext,
    _overlap_groups,
    all_coarsenings,
    build_poset,
    check_state_global_element,
    is_subalgebra,
    meet,
    restrict_functional,
    restrict_state,
)
from qcontexts.linalg import DensityMatrix, Projector, ValidationError
from qcontexts.scalars import QSqrt2


def diag_context(d: int, backend: str = "float") -> Context:
    eye = np.eye(d)
    return Context([Projector.from_ray(eye[:, i], backend) for i in range(d)])


def test_context_validation():
    p0 = Projector.from_ray([1, 0], "float")
    p1 = Projector.from_ray([0, 1], "float")
    Context([p0, p1])
    with pytest.raises(ValidationError):
        Context([p0, p0])  # not orthogonal
    with pytest.raises(ValidationError):
        Context([p0])  # does not sum to identity


def test_context_id_is_order_independent():
    p0 = Projector.from_ray([1, 0], "float")
    p1 = Projector.from_ray([0, 1], "float")
    assert Context([p0, p1]).id == Context([p1, p0]).id


def test_trivial_context():
    t = Context.trivial(3)
    assert t.n_atoms == 1


def test_subalgebra_and_restriction():
    v1 = diag_context(3)
    p01 = Projector.from_span([[1, 0, 0], [0, 1, 0]], "float")
    v2 = Context([p01, p01.complement()])
    assert is_subalgebra(v2, v1)
    assert not is_subalgebra(v1, v2)
    for i, atom in enumerate(v1.atoms):
        r = restrict_functional(SpectralFunctional(v1.id, i), v1, v2)
        # the restricted functional picks the coarse atom above atom i
        assert r.context_id == v2.id and atom.leq(v2.atoms[r.index])
    with pytest.raises(ValidationError):
        restrict_functional(SpectralFunctional(v2.id, 0), v2, v1)


def test_meet_shared_column():
    rng = make_rng(3)
    u = random_unitary(rng, 3)
    v1 = context_from_columns(u)
    v2 = context_from_columns(rotate_pair(u, 0, 1, 0.7))
    m = meet(v1, v2)
    # columns 0,1 were mixed; column 2 is shared
    assert m.n_atoms == 2
    assert is_subalgebra(m, v1) and is_subalgebra(m, v2)


def test_meet_is_greatest_lower_bound():
    rng = make_rng(5)
    for d in (3, 4):
        u = random_unitary(rng, d)
        v1 = context_from_columns(u)
        blocks = [[0, 1]] + [[i] for i in range(2, d)]
        v2 = coarsen_columns(u, blocks)
        m = meet(v1, v2)
        assert m.id == v2.id  # v2 is already below v1


def components_by_search(masks):
    """Breadth-first search over the bipartite overlap graph: first-context
    atom ("a", i) meets second-context atom ("b", j) when bit j of masks[i]
    is set. The groups of first-context atoms, as ``_overlap_groups`` lists
    them."""
    n2 = max(masks).bit_length()
    nbrs = {("a", i): [("b", j) for j in range(n2) if m >> j & 1] for i, m in enumerate(masks)}
    for j in range(n2):
        nbrs[("b", j)] = [("a", i) for i, m in enumerate(masks) if m >> j & 1]
    seen, groups = set(), []
    for i in range(len(masks)):
        if ("a", i) in seen:
            continue
        seen.add(("a", i))
        queue, group = [("a", i)], []
        while queue:
            node = queue.pop(0)
            if node[0] == "a":
                group.append(node[1])
            for nb in nbrs[node]:
                if nb not in seen:
                    seen.add(nb)
                    queue.append(nb)
        groups.append(sorted(group))
    return groups


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 7).flatmap(
    lambda n2: st.lists(st.integers(0, (1 << n2) - 1), min_size=1, max_size=7)))
def test_overlap_groups_are_the_overlap_components(masks):
    assert _overlap_groups(masks) == components_by_search(masks)


def test_all_coarsenings_count():
    # Bell numbers: 5 partitions of a 3-element set
    assert len(all_coarsenings(diag_context(3))) == 5
    assert len(all_coarsenings(diag_context(4))) == 15


def test_build_poset_structure():
    rng = make_rng(9)
    poset = random_poset(rng, 3)
    assert poset.bottom_id in poset.contexts
    ids = poset.ids()
    # reflexivity, antisymmetry spot checks
    for cid in ids:
        assert poset.is_leq(cid, cid)
        assert poset.is_leq(poset.bottom_id, cid)
    for sub, sup in poset.proper_pairs():
        assert not poset.is_leq(sup, sub)


def test_restriction_maps_compose():
    rng = make_rng(13)
    for seed in range(8):
        poset = random_poset(make_rng(seed), 4)
        for c3, c2 in poset.proper_pairs():
            for c2b, c1 in poset.proper_pairs():
                if c2b != c2:
                    continue
                r12 = poset.restriction[(c2, c1)]
                r23 = poset.restriction[(c3, c2)]
                r13 = poset.restriction[(c3, c1)]
                assert all(r23[r12[i]] == r13[i] for i in range(len(r12)))


def test_restrict_state_pushforward():
    rng = make_rng(17)
    poset = random_poset(rng, 3)
    rho = random_density(rng, 3)
    weights = {cid: restrict_state(rho, poset.contexts[cid]).weights for cid in poset.ids()}
    assert check_state_global_element(weights, poset)


def test_weight_family_mutation_detected():
    rng = make_rng(19)
    poset = random_poset(rng, 3)
    rho = random_density(rng, 3)
    family = {
        cid: list(restrict_state(rho, poset.contexts[cid]).weights)
        for cid in poset.ids()
    }
    assert check_state_global_element(family, poset)
    victim = poset.proper_pairs()[0][0]
    family[victim][0] += 0.05
    assert not check_state_global_element(family, poset)


def test_exact_weight_family_compared_exactly():
    # 1/10 + 1/5 and 3/10 differ as floats; the exact check must not care
    v = Context([Projector.from_ray(r, "exact") for r in np.eye(3, dtype=int).tolist()])
    poset = build_poset(all_coarsenings(v))
    rho = DensityMatrix.from_diag([Fraction(1, 10), Fraction(1, 5), Fraction(7, 10)], "exact")
    family = {
        cid: list(restrict_state(rho, poset.contexts[cid]).weights)
        for cid in poset.ids()
    }
    assert check_state_global_element(family, poset)
    victim = poset.proper_pairs()[0][0]
    family[victim][0] += Fraction(1, 10**9)
    assert not check_state_global_element(family, poset)


def test_poset_json_roundtrip():
    rng = make_rng(23)
    poset = random_poset(rng, 3)
    again = ContextPoset.from_json(poset.to_json())
    assert sorted(again.contexts) == sorted(poset.contexts)
    assert again.leq == poset.leq


def test_proper_pairs_are_one_sorted_tuple_per_poset():
    poset = random_poset(make_rng(23), 3)
    pairs = poset.proper_pairs()
    assert isinstance(pairs, tuple) and poset.proper_pairs() is pairs
    assert list(pairs) == [(a, b) for (a, b) in sorted(poset.leq) if a != b]


def test_exact_poset_from_integer_rays():
    p = [Projector.from_ray(r, "exact") for r in ([1, 0, 0], [0, 1, 1], [0, 1, -1])]
    v = Context(p)
    poset = build_poset([v], close_under_meet=True)
    assert len(poset) == 2  # maximal + trivial
    assert poset.backend == "exact"


@pytest.mark.parametrize("weights", [
    (QSqrt2(Fraction(1, 2)), QSqrt2(Fraction(1, 2) - Fraction(1, 10**9))),
    (QSqrt2(Fraction(3, 2)), QSqrt2(Fraction(-1, 2))),
    (1.5, -0.5),
])
def test_state_weights_are_checked(weights):
    with pytest.raises(ValidationError):
        StateOnContext("c", weights)


def test_exact_state_weights_sum_exactly():
    half = QSqrt2(Fraction(1, 2), Fraction(1, 4))
    StateOnContext("c", (half, 1 - half))
    StateOnContext("c", (0.5, 0.5 + 1e-9))
