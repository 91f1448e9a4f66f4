"""The trace pairing against the full matrix products it replaces.

tr(AB), `orthogonal_to`, `leq`, Born weights and meets are computed from a
dot product of the entries of A and B: over integer forms of the matrices
on the exact backend, with `np.vdot` on the float one. Each is checked here
against the full-matrix computation, over Q(sqrt 2) and in floating point.
The exact positive-semidefiniteness test of density matrices is checked
against numpy's eigenvalues.
"""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcontexts import ks
from qcontexts.contexts import Context, all_coarsenings, meet
from qcontexts.linalg import (
    DensityMatrix,
    HermitianOperator,
    Projector,
    ValidationError,
    _exact_is_psd,
    _product_trace,
    born_probability,
)
from qcontexts.scalars import EC_ZERO, ExactComplex, QSqrt2

rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
reals = st.builds(QSqrt2, rationals, rationals)
# few distinct entries, so that random rays are often orthogonal
entries = st.sampled_from([
    ExactComplex(x, y) for x, y in [(0, 0), (0, 0), (1, 0), (-1, 0), (QSqrt2(0, 1), 0),
                                    (Fraction(1, 2), 0), (0, 1), (1, -1), (QSqrt2(0, 1), 1)]
])
dims = st.integers(min_value=1, max_value=3)


@st.composite
def hermitian(draw, dim):
    rows = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        rows[i][i] = ExactComplex(draw(reals))
        for j in range(i + 1, dim):
            x = ExactComplex(draw(reals), draw(reals))
            rows[i][j], rows[j][i] = x, x.conj()
    return HermitianOperator(dim, tuple(tuple(r) for r in rows), "exact")


def vectors(dim):
    """Nonzero vectors: an all-zero draw gets a 1 in front."""
    return st.lists(entries, min_size=dim, max_size=dim).map(
        lambda v: v if any(not x.is_zero() for x in v) else [ExactComplex(1)] + v[1:])


@st.composite
def projector(draw, dim):
    vecs = draw(st.lists(vectors(dim), min_size=1, max_size=dim))
    if len(vecs) == 1:
        return Projector.from_ray(vecs[0], "exact")
    return Projector.from_span(vecs, "exact")


@st.composite
def projector_pair(draw):
    """A random pair, a projector with its complement, or one inside a span."""
    dim = draw(dims)
    p = draw(projector(dim))
    kind = draw(st.sampled_from(["random", "complement", "span"]))
    if kind == "complement":
        return p, p.complement()
    if kind == "span":
        v = draw(vectors(dim))
        rows = [[p.matrix.data[i][j] for i in range(dim)] for j in range(dim)]
        return p, Projector.from_span(rows + [v], "exact")
    return p, draw(projector(dim))


@st.composite
def state_and_projector(draw):
    dim = draw(dims)
    a = DensityMatrix.pure(draw(vectors(dim)), "exact").matrix
    b = DensityMatrix.pure(draw(vectors(dim)), "exact").matrix
    w = draw(st.fractions(min_value=0, max_value=1, max_denominator=7))
    rho = DensityMatrix(a.scale(w) + b.scale(1 - w))
    return rho, draw(projector(dim))


def fraction_trace(a, b):
    """The Fraction sum the kernel replaces: sum_ij a_ij b_ji."""
    d = a.dim
    return sum((a.data[i][j] * b.data[j][i] for i in range(d) for j in range(d)), EC_ZERO)


@settings(max_examples=60, deadline=None)
@given(dims.flatmap(lambda d: st.tuples(hermitian(d), hermitian(d))))
def test_product_trace_matches_fraction_sum(pair):
    a, b = pair
    t = _product_trace(a, b)
    assert isinstance(t, QSqrt2)
    assert ExactComplex(t) == fraction_trace(a, b)


@settings(max_examples=60, deadline=None)
@given(projector_pair())
def test_predicates_match_matrix_products(pair):
    p, q = pair
    pq = p.matrix @ q.matrix
    assert p.orthogonal_to(q) == pq.is_zero()
    assert q.orthogonal_to(p) == pq.is_zero()
    assert p.leq(q) == pq.close_to(p.matrix)


@settings(max_examples=60, deadline=None)
@given(state_and_projector())
def test_exact_born_probability_is_trace_of_product(pair):
    rho, p = pair
    assert born_probability(rho, p) == (rho.matrix @ p.matrix).real_trace()


@settings(max_examples=60, deadline=None)
@given(state_and_projector())
def test_mixed_exact_states_are_psd(pair):
    rho, p = pair
    assert _exact_is_psd(rho.matrix.data, rho.dim)
    assert _exact_is_psd(p.matrix.data, p.dim)
    assert not _exact_is_psd(rho.matrix.scale(-1).data, rho.dim)


@settings(max_examples=80, deadline=None)
@given(dims.flatmap(hermitian), st.sampled_from([Fraction(1, 10), Fraction(-1, 10)]))
def test_exact_psd_matches_eigenvalues(h, margin):
    """Shift a random rational Hermitian matrix so that its least eigenvalue
    is about +-1/10, well inside or outside the cone."""
    least = float(np.linalg.eigvalsh(h.to_complex_array()).min())
    shift = Fraction(-least).limit_denominator(1000) + margin
    m = h + HermitianOperator.identity(h.dim, "exact").scale(shift)
    least = float(np.linalg.eigvalsh(m.to_complex_array()).min())
    assert abs(least) > 1e-2
    assert _exact_is_psd(m.data, m.dim) == (least > 0)


def test_exact_states_are_validated_exactly():
    tiny = Fraction(1, 10**8)
    with pytest.raises(ValidationError, match="positive semidefinite"):
        DensityMatrix.from_diag([1 + tiny, -tiny], "exact")
    with pytest.raises(ValidationError, match="trace"):
        DensityMatrix.from_diag([Fraction(1, 2), Fraction(1, 2) + tiny], "exact")
    # off-diagonal mass beyond the diagonal: det = 1/4 - (1/4 + 2 tiny^2) < 0
    half = ExactComplex(Fraction(1, 2))
    off = ExactComplex(Fraction(1, 2), QSqrt2(0, tiny))
    m = HermitianOperator(2, ((half, off), (off.conj(), half)), "exact")
    with pytest.raises(ValidationError, match="positive semidefinite"):
        DensityMatrix(m)
    # a zero pivot is allowed only with a zero row
    DensityMatrix(HermitianOperator.diag([0, 1], "exact"))
    coupled = HermitianOperator(2, ((EC_ZERO, ExactComplex(tiny)),
                                    (ExactComplex(tiny), ExactComplex(1))), "exact")
    assert not _exact_is_psd(coupled.data, 2)


# -- the float pairing -------------------------------------------------------


def _float_hermitian(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianOperator(dim, z + z.conj().T, "float")


def float_projector_pair(seed):
    """``(kind, P, Q)`` in d <= 5: P spans the first k columns of a random
    unitary, and Q is its complement, a span of more columns (above P), a
    span of other columns (orthogonal to P) or of random vectors."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 6))
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    cols = list(np.linalg.qr(z)[0].T)
    k = int(rng.integers(1, dim + 1))
    p = Projector.from_span(cols[:k], "float")
    kind = ["complement", "above", "orthogonal", "random"][int(rng.integers(4))]
    if kind == "complement":
        return kind, p, p.complement()
    if kind == "above":
        return kind, p, Projector.from_span(cols[: int(rng.integers(k, dim + 1))], "float")
    if kind == "orthogonal" and k < dim:
        return kind, p, Projector.from_span(cols[k : int(rng.integers(k + 1, dim + 1))], "float")
    z = rng.standard_normal((k, dim)) + 1j * rng.standard_normal((k, dim))
    return "random", p, Projector.from_span(list(z), "float")


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_float_predicates_match_matrix_products(seed):
    kind, p, q = float_projector_pair(seed)
    pq = p.matrix @ q.matrix
    assert p.orthogonal_to(q) == pq.is_zero() == (kind in ("complement", "orthogonal"))
    assert q.orthogonal_to(p) == pq.is_zero()
    assert p.leq(q) == pq.close_to(p.matrix) == (kind == "above" or p.dim == p.rank == q.rank)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_float_product_trace_matches_numpy(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 6))
    a, b = _float_hermitian(rng, dim), _float_hermitian(rng, dim)
    assert abs(_product_trace(a, b) - np.trace(a.data @ b.data)) <= 1e-12
    _, p, q = float_projector_pair(seed)
    assert abs(_product_trace(p.matrix, q.matrix) - np.trace(p.matrix.data @ q.matrix.data)) <= 1e-12


def full_matrix_meet(v1: Context, v2: Context) -> Context:
    """Meet by merging along the overlap graph and summing every group."""
    n1, n2 = v1.n_atoms, v2.n_atoms
    parent = list(range(n1 + n2))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i in range(n1):
        for j in range(n2):
            if not (v1.atoms[i].matrix @ v2.atoms[j].matrix).is_zero():
                parent[find(i)] = find(n1 + j)
    groups: dict = {}
    for i in range(n1):
        groups.setdefault(find(i), []).append(i)
    atoms = []
    for idxs in groups.values():
        m = v1.atoms[idxs[0]].matrix
        for i in idxs[1:]:
            m = m + v1.atoms[i].matrix
        atoms.append(Projector(m, validate=False))
    return Context(atoms, validate=False)


def _context_pool(name):
    """Every basis, orthogonal-pair and coarsened context of a fixture."""
    rs = ks.load_rayset(name)
    pool = {}
    for b in rs.bases:
        for c in all_coarsenings(Context([rs.projectors[i] for i in b])):
            pool[c.id] = c
    for p, q in combinations(rs.projectors, 2):
        if p.orthogonal_to(q):
            rest = p.plus(q).complement()
            c = Context([p, q] + ([] if rest.is_zero() else [rest]))
            pool[c.id] = c
    return [pool[cid] for cid in sorted(pool)]


POOLS = [_context_pool("peres33"), _context_pool("ks18")]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(POOLS).flatmap(lambda pool: st.tuples(
    st.sampled_from(pool), st.sampled_from(pool))))
def test_meet_id_matches_full_matrix_construction(pair):
    v1, v2 = pair
    assert meet(v1, v2).id == full_matrix_meet(v1, v2).id
