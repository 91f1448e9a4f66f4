"""Exact operators are their integer form ``(D, p, q)``.

Every entry of an exact operator is ``(p_k + q_k sqrt 2) / D`` (see
`linalg`), and sums, differences, complements and ray projectors are built
in integers. The `ExactComplex` formulas they replaced are the oracle here:
on every operator a ks18 `--coarsenings` and a peres33 `--pairs` build make,
and on random Hermitian matrices with imaginary and sqrt 2 parts, the
materialized entries must equal the entrywise `ExactComplex` results, the
form must equal the common-denominator form of those entries, and the
canonical key must be `ExactComplex.key()` of each entry. Since trace
decisions read the form, equal forms give the same `_exact_trace_parts`.
"""

import random
from fractions import Fraction
from itertools import product
from math import lcm
from operator import add, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcontexts import ks
from qcontexts.contexts import all_coarsenings, build_poset
from qcontexts.linalg import (
    HermitianOperator,
    Projector,
    _exact_form,
    _exact_key,
    _exact_trace_parts,
    _trace_is,
)
from qcontexts.scalars import EC_ZERO, ExactComplex, QSqrt2, exact_entry


def reference_form(rows):
    """The form of ExactComplex entries over the lcm of their denominators,
    trailing zeros dropped: how the form was computed from entries before."""
    entries = [x for row in rows for x in row]
    rat = [x.re.a for x in entries] + [x.im.a for x in entries]
    irr = [x.re.b for x in entries] + [x.im.b for x in entries]
    d = lcm(*(f.denominator for f in rat + irr))

    def ints(fracs):
        out = [f.numerator * (d // f.denominator) for f in fracs]
        while out and out[-1] == 0:
            out.pop()
        return tuple(out)

    return d, ints(rat), ints(irr)


def reference_key(rows):
    return tuple(x.key() for row in rows for x in row)


def reference_trace(x, y):
    """tr(XY) = sum_ij x_ij y_ji over ExactComplex entries."""
    d = len(x)
    return sum((x[i][j] * y[j][i] for i in range(d) for j in range(d)), EC_ZERO)


def reference_ray(vec):
    v = [exact_entry(x) for x in vec]
    n = sum((x.conj() * x for x in v), EC_ZERO)
    return tuple(tuple(a * b.conj() / n for b in v) for a in v)


def entrywise(op, x, y):
    return tuple(tuple(op(u, v) for u, v in zip(r, s)) for r, s in zip(x, y))


def ks18_coarsenings():
    rs = ks.load_rayset("ks18")
    poset = ks.poset_from_rayset(rs)
    gens = [c for cid in poset.maximal_ids() for c in all_coarsenings(poset.contexts[cid])]
    return rs, build_poset(gens)


def peres33_pairs():
    rs = ks.load_rayset("peres33")
    return rs, ks.poset_from_rayset(rs, include_pairs=True)


BUILDS = {"ks18 --coarsenings": ks18_coarsenings, "peres33 --pairs": peres33_pairs}


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_every_operator_of_a_build_matches_exact_complex(monkeypatch, name):
    calls = []
    combine = HermitianOperator._combine

    def recording(self, op, other):
        out = combine(self, op, other)
        calls.append((op, self, other, out))
        return out

    monkeypatch.setattr(HermitianOperator, "_combine", recording)
    rs, poset = BUILDS[name]()
    monkeypatch.undo()
    # basis checks and merged atoms add; peres33's pair complements subtract
    assert {op for op, *_ in calls} == ({add, sub} if "pairs" in name else {add})
    for op, a, b, out in calls:
        rows = out.entries()
        assert rows == entrywise(op, a.entries(), b.entries())
        assert out.data == reference_form(rows)
    for ray, p in zip(rs.rays, rs.projectors):
        assert p.matrix.entries() == reference_ray(ray)
    atoms = {p.canonical_key: p for v in poset.contexts.values() for p in v.atoms}
    atoms.update((p.canonical_key, p) for p in rs.projectors)
    for p in atoms.values():
        rows = p.matrix.entries()
        assert p.matrix.data == reference_form(rows)
        assert p.canonical_key == reference_key(rows)
        assert p.key_bytes == repr(p.canonical_key).encode()
        assert ExactComplex(p.rank) == sum((rows[i][i] for i in range(p.dim)), EC_ZERO)
    # the predicates on sampled atom pairs, against the full product
    atoms = list(atoms.values())
    orthogonal = set()
    for i, j in random.Random(0).sample(list(product(range(len(atoms)), repeat=2)), 300):
        p, q = atoms[i], atoms[j]
        t = reference_trace(p.matrix.entries(), q.matrix.entries())
        assert _trace_is(p, q, 0) == t.is_zero()
        assert _trace_is(p, q, p.rank) == (t == p.rank)
        orthogonal.add(t.is_zero())
    assert orthogonal == {True, False}


def test_builds_sum_no_exact_complex_entries(monkeypatch):
    """Pair sums, complements, basis checks, merged meet atoms and
    coarsening atoms never add or subtract ExactComplex entries."""
    def refuse(self, other):
        raise AssertionError("ExactComplex arithmetic in a poset build")

    ids = {name: build()[1].ids() for name, build in BUILDS.items()}
    monkeypatch.setattr(ExactComplex, "__add__", refuse)
    monkeypatch.setattr(ExactComplex, "__sub__", refuse)
    for name, build in BUILDS.items():
        assert build()[1].ids() == ids[name]


# -- random Hermitian matrices ----------------------------------------------

# denominators with common factors, so that sums over the lcm need reducing
rationals = st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 6, 12]))
reals = st.builds(QSqrt2, rationals, rationals)
dims = st.integers(min_value=1, max_value=3)


@st.composite
def hermitian(draw, dim):
    rows = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        rows[i][i] = ExactComplex(draw(reals))
        for j in range(i + 1, dim):
            x = ExactComplex(draw(reals), draw(reals))
            rows[i][j], rows[j][i] = x, x.conj()
    return HermitianOperator.from_entries(rows, "exact")


@settings(max_examples=80, deadline=None)
@given(dims.flatmap(lambda d: st.tuples(hermitian(d), hermitian(d), hermitian(d))))
def test_random_sums_match_exact_complex(ops):
    a, b, c = ops
    n = a.dim ** 2
    for op in (add, sub):
        for x, y in ((a, b), (b, a), (a, a), (b, c)):
            out = op(x, y)
            rows = out.entries()
            assert rows == entrywise(op, x.entries(), y.entries())
            assert out.data == reference_form(rows)
            assert _exact_key(out.data, n) == reference_key(rows)
            r, s, d = _exact_trace_parts(out, c)
            assert ExactComplex(QSqrt2(Fraction(r, d), Fraction(s, d))) == \
                reference_trace(rows, c.entries())
    assert (a - a).data == HermitianOperator.zero(a.dim, "exact").data == (1, (), ())
    eye = HermitianOperator.identity(a.dim, "exact")
    assert eye.entries() == HermitianOperator.diag([1] * a.dim, "exact").entries()


@settings(max_examples=80, deadline=None)
@given(dims.flatmap(hermitian), st.integers(2, 30), st.integers(0, 3))
def test_unreduced_forms_reduce_to_the_same_form(a, k, pad):
    d, p, q = a.data
    zeros = (0,) * pad
    assert _exact_form(k * d, [k * x for x in p] + list(zeros),
                       [k * x for x in q] + list(zeros)) == a.data


@settings(max_examples=60, deadline=None)
@given(dims.flatmap(lambda d: st.lists(
    st.lists(st.sampled_from([0, 1, -1, "1/2", [0, 1], [1, "-1/3"]]), min_size=d, max_size=d)
    .filter(lambda v: any(x != 0 for x in v)), min_size=1, max_size=d)))
def test_projector_complements_match_exact_complex(vecs):
    p = Projector.from_span(vecs, "exact")
    c = p.complement()
    eye = HermitianOperator.identity(p.dim, "exact").entries()
    assert c.matrix.entries() == entrywise(sub, eye, p.matrix.entries())
    assert c.canonical_key == reference_key(c.matrix.entries())
    assert c.rank == p.dim - p.rank
