"""The trace pairing against the full matrix products it replaces.

tr(AB), `orthogonal_to`, `leq`, Born weights and meets are computed from a
dot product of the entries of A and B: over integer forms of the matrices
on the exact backend, over flat tuples of Python floats on the float one.
Each is checked here against the full-matrix computation, over Q(sqrt 2) and
in floating point, and the float keys and decisions against numpy's.
The exact positive-semidefiniteness test of density matrices is checked
against numpy's eigenvalues.
"""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import float_poset_json

from qcontexts import ks
from qcontexts.contexts import Context, ContextPoset, all_coarsenings, meet
from qcontexts.linalg import (
    DensityMatrix,
    HermitianOperator,
    Projector,
    ValidationError,
    _exact_is_psd,
    _float_canonical_key,
    _product_trace,
    born_probability,
)
from qcontexts.scalars import EC_ZERO, ExactComplex, QSqrt2, get_eps

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
    return HermitianOperator.from_entries(rows, "exact")


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
        rows = [list(col) for col in zip(*p.matrix.entries())]
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
    d, a, b = a.dim, a.entries(), b.entries()
    return sum((a[i][j] * b[j][i] for i in range(d) for j in range(d)), EC_ZERO)


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
    assert _exact_is_psd(rho.matrix.entries(), rho.dim)
    assert _exact_is_psd(p.matrix.entries(), p.dim)
    assert not _exact_is_psd(rho.matrix.scale(-1).entries(), rho.dim)


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
    assert _exact_is_psd(m.entries(), m.dim) == (least > 0)


def test_exact_states_are_validated_exactly():
    tiny = Fraction(1, 10**8)
    with pytest.raises(ValidationError, match="positive semidefinite"):
        DensityMatrix.from_diag([1 + tiny, -tiny], "exact")
    with pytest.raises(ValidationError, match="trace"):
        DensityMatrix.from_diag([Fraction(1, 2), Fraction(1, 2) + tiny], "exact")
    # off-diagonal mass beyond the diagonal: det = 1/4 - (1/4 + 2 tiny^2) < 0
    half = ExactComplex(Fraction(1, 2))
    off = ExactComplex(Fraction(1, 2), QSqrt2(0, tiny))
    m = HermitianOperator.from_entries(((half, off), (off.conj(), half)), "exact")
    with pytest.raises(ValidationError, match="positive semidefinite"):
        DensityMatrix(m)
    # a zero pivot is allowed only with a zero row
    DensityMatrix(HermitianOperator.diag([0, 1], "exact"))
    coupled = HermitianOperator.from_entries(((EC_ZERO, ExactComplex(tiny)),
                                              (ExactComplex(tiny), ExactComplex(1))), "exact")
    assert not _exact_is_psd(coupled.entries(), 2)


# -- the float pairing -------------------------------------------------------


def _float_hermitian(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianOperator.from_entries(z + z.conj().T, "float")


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
    assert abs(_product_trace(a, b) - np.trace(a.to_complex_array() @ b.to_complex_array())) <= 1e-12
    _, p, q = float_projector_pair(seed)
    assert abs(_product_trace(p.matrix, q.matrix)
               - np.trace(p.matrix.to_complex_array() @ q.matrix.to_complex_array())) <= 1e-12


def numpy_key(m: HermitianOperator):
    """The float canonical key as numpy computed it: np.round(arr, 6) + 0.0,
    as (real, imaginary) pairs."""
    r = np.round(m.to_complex_array(), 6) + 0.0
    return tuple((float(x.real), float(x.imag)) for x in r.flatten())


TIES = [0.5e-6, -0.5e-6, 2.5e-6, -2.5e-6, 1.5e-6, -1.5e-6, -0.0, 0.0,
        0.4999995, -0.4999995, 0.1234565, 1e-7, 3.5e-6, -3.5e-6, 1.0, -0.25]


def test_float_keys_match_numpy_rounding_on_ties():
    # repr, not ==, because -0.0 == 0.0 but context ids hash the key's repr
    complex_rows = [[complex(TIES[4 * i + j], TIES[(5 * i + 3 * j) % 16]) for j in range(4)]
                    for i in range(4)]
    real_rows = [[TIES[4 * i + j] for j in range(4)] for i in range(4)]
    signed_zero_rows = [[complex(x, -0.0) for x in row] for row in real_rows]
    for rows in (complex_rows, real_rows, signed_zero_rows):
        m = HermitianOperator.from_entries(rows, "float", validate=False)
        assert repr(_float_canonical_key(m.data, 16)) == repr(numpy_key(m))
    assert len(HermitianOperator.from_entries(signed_zero_rows, "float", validate=False).data) == 32


def test_float_keys_and_decisions_match_numpy_on_benchmark_posets(tmp_path):
    """Keys, sums and complements bit for bit, and every orthogonal_to and
    leq decision, against numpy on the atoms of the presheaf-float posets."""
    tol = 10 * get_eps()
    accepted, rejected = 0.0, float("inf")
    for seed in range(501, 511):
        poset = ContextPoset.from_json(float_poset_json(seed, str(tmp_path)))
        for v in poset.contexts.values():
            arrays = [a.matrix.to_complex_array() for a in v.atoms]
            for a, arr in zip(v.atoms, arrays):
                assert repr(a.canonical_key) == repr(numpy_key(a.matrix))
                assert a.complement().matrix.to_complex_array().tobytes() == (
                    np.eye(v.dim, dtype=complex) - arr).tobytes()
            total = v.atoms[0].matrix + v.atoms[-1].matrix
            assert total.to_complex_array().tobytes() == (arrays[0] + arrays[-1]).tobytes()
        atoms = list({a.canonical_key: a for v in poset.contexts.values()
                      for a in v.atoms}.values())
        arrays = [a.matrix.to_complex_array() for a in atoms]
        for p, pa in zip(atoms, arrays):
            for q, qa in zip(atoms, arrays):
                t_numpy = complex(np.vdot(qa, pa))
                t = _product_trace(p.matrix, q.matrix)
                for k, decided in ((0, p.orthogonal_to(q)), (p.rank, p.leq(q))):
                    assert decided == (abs(t_numpy - k) <= tol), (seed, k)
                    if decided:
                        accepted = max(accepted, abs(t - k))
                    else:
                        rejected = min(rejected, abs(t - k))
    print(f"largest accepted |tr - k| {accepted:.2g}, smallest rejected {rejected:.2g}")


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
            rest = Projector(p.matrix + q.matrix, validate=False).complement()
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
