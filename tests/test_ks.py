import json
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcontexts.contexts import Context, build_poset
from qcontexts.ks import (
    RaySet,
    _is_bad_entry,
    brute_force_sections,
    compile_problem,
    discover_bases,
    enumerate_global_sections,
    find_global_section,
    load_rayset,
    poset_from_rayset,
    validate_section,
)
from qcontexts.linalg import Projector, ValidationError


def test_load_dim2_fixture():
    rs = load_rayset("dim2_two_bases")
    assert rs.dim == 2 and rs.n_rays == 4
    assert len(rs.bases) == 2


def test_rayset_dedupes_scalar_multiples():
    rs = RaySet(2, [[1, 0], [2, 0], [0, 1], [0, -3]])
    assert rs.n_rays == 2
    assert rs.bases == ((0, 1),)


def test_declared_bases_index_rays_as_given():
    rs = RaySet(3, [[1, 0, 0], [0, 1, 0], [2, 0, 0], [0, 0, 1]], bases=[[2, 1, 3]])
    assert rs.n_rays == 3
    assert rs.bases == ((0, 1, 2),)


def test_declared_bases_are_stored_once_in_canonical_form():
    rs = RaySet(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], bases=[[0, 1, 2], [2, 1, 0]])
    assert rs.bases == ((0, 1, 2),)
    assert len(poset_from_rayset(rs)) == 2


def test_declared_nonorthogonal_basis_rejected():
    with pytest.raises(ValidationError):
        RaySet(2, [[1, 0], [1, 1]], bases=[[0, 1]])


def test_ray_entry_check_survives_any_nesting_depth():
    # a ray file nested just under the JSON parser's depth limit reaches
    # this check; it must not recurse once per level
    deep = None
    for _ in range(100_000):
        deep = [deep]
    assert _is_bad_entry(deep)
    assert _is_bad_entry([[[["1/2", True]]]])
    assert not _is_bad_entry([[[["1/2", 1]]]])


def test_basis_discovery_matches_declaration():
    rs = load_rayset("ks18")
    found = discover_bases(rs.table.overlap, 4)
    assert sorted(found) == sorted(rs.bases)
    # each ray sits in exactly two bases
    counts = [0] * rs.n_rays
    for b in rs.bases:
        for i in b:
            counts[i] += 1
    assert counts == [2] * 18


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 4]).flatmap(lambda d: st.tuples(st.just(d), st.lists(
    st.lists(st.integers(-1, 1), min_size=d, max_size=d).filter(any), max_size=12))))
def test_discovered_bases_are_the_orthogonal_combinations(dim_rays):
    dim, rays = dim_rays
    rs = RaySet(dim, rays)
    ps = rs.projectors
    want = [c for c in combinations(range(len(ps)), dim)
            if all(ps[i].orthogonal_to(ps[j]) for i, j in combinations(c, 2))]
    assert discover_bases(rs.table.overlap, dim) == want
    assert rs.bases == tuple(want)


def test_single_basis_poset_sections():
    rs = RaySet(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    poset = poset_from_rayset(rs)
    assert len(poset) == 2
    sections, report = enumerate_global_sections(poset)
    assert len(sections) == 3  # free choice of one atom
    assert all(validate_section(s, poset) for s in sections)


def test_two_disjoint_bases_product_count():
    rays = [[1, 0, 0], [0, 1, 0], [0, 0, 1],
            [1, 1, 0], [1, -1, 0]]
    rs = RaySet(3, rays, bases=[[0, 1, 2], [3, 4, 2]])
    poset = poset_from_rayset(rs)
    sections, _ = enumerate_global_sections(poset)
    bf = brute_force_sections(poset)
    assert len(sections) == len(bf)
    got = {tuple(sorted(s.choices.items())) for s in sections}
    want = {tuple(sorted(s.choices.items())) for s in bf}
    assert got == want


def test_shared_ray_meet_adds_context():
    rays = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 1, 1], [0, 1, -1]]
    rs = RaySet(3, rays, bases=[[0, 1, 2], [0, 3, 4]])
    poset = poset_from_rayset(rs, close=True)
    # maximal pair + shared {P0, 1-P0} context + trivial
    assert len(poset) == 4


def test_dim2_always_colourable():
    rs = load_rayset("dim2_two_bases")
    poset = poset_from_rayset(rs)
    section, report = find_global_section(poset)
    assert section is not None and report["exists"]
    assert validate_section(section, poset)


def test_ks18_has_no_section_and_brute_force_agrees():
    poset = poset_from_rayset(load_rayset("ks18"))
    section, report = find_global_section(poset)
    assert section is None and not report["exists"]
    assert report["n_maximal"] == 9
    assert brute_force_sections(poset) == []


def test_ks18_minus_one_basis_matches_brute_force():
    rs = load_rayset("ks18")
    reduced = RaySet(4, [list(r) for r in rs.rays], bases=list(rs.bases)[:-1])
    poset = poset_from_rayset(reduced)
    sections, _ = enumerate_global_sections(poset)
    bf = brute_force_sections(poset)
    got = {tuple(sorted(s.choices.items())) for s in sections}
    want = {tuple(sorted(s.choices.items())) for s in bf}
    assert got == want


def test_obstruction_is_monotone_under_growth():
    # a poset extending the KS poset cannot regain a section
    rs = load_rayset("ks18")
    extra_ray = [0, 0, 1, -1]  # completes a 10th basis with rays already present
    grown = RaySet(4, [list(r) for r in rs.rays] + [extra_ray])
    assert grown.n_rays == 19
    assert len(grown.bases) > 9
    poset = poset_from_rayset(grown)
    section, report = find_global_section(poset)
    assert section is None


@pytest.mark.slow
def test_peres33_has_no_section_with_pair_contexts():
    rs = load_rayset("peres33")
    assert rs.n_rays == 33 and len(rs.bases) == 16
    triads_only = poset_from_rayset(rs)
    with_pairs = poset_from_rayset(rs, include_pairs=True)
    # complete triads alone do not witness the obstruction; the
    # pair-generated contexts do
    s1, report = find_global_section(triads_only)
    assert s1 is not None and validate_section(s1, triads_only)
    assert report["nodes"] == 23
    s2, report = find_global_section(with_pairs)
    assert s2 is None and not report["exists"]
    assert report["nodes"] == 6441


def test_compiled_problem_is_deterministic():
    poset = poset_from_rayset(load_rayset("dim2_two_bases"))
    a = compile_problem(poset)
    b = compile_problem(poset)
    assert a == b


def test_search_report_shape():
    poset = poset_from_rayset(load_rayset("dim2_two_bases"))
    _, report = find_global_section(poset)
    assert report["elapsed_ms"] is None  # deterministic by default
    _, timed = find_global_section(poset, timings=True)
    assert isinstance(timed["elapsed_ms"], float)
