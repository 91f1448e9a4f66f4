import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import make_rng, random_density, random_unitary

from qcontexts.linalg import (
    BackendError,
    DensityMatrix,
    HermitianOperator,
    Projector,
    ValidationError,
    born_probability,
)
from qcontexts.scalars import QSqrt2, get_eps, set_eps


def test_hermitian_validation():
    with pytest.raises(ValidationError):
        HermitianOperator.from_entries([[0, 1], [0, 0]], "float")
    HermitianOperator.from_entries([[0, 1], [1, 0]], "float")
    HermitianOperator.from_entries([[0, 1], [1, 0]], "exact")


def _old_to_json(arr):
    """Float to_json as it was computed from a numpy array."""
    return {"dim": arr.shape[0], "re": [[float(x) for x in row] for row in arr.real],
            "im": [[float(x) for x in row] for row in arr.imag]}


def _random_float_matrix(rng, d, kind):
    """A d x d complex array: real, complex, real with -0.0 imaginary
    parts, or real with some entries exactly zero (signed)."""
    m = rng.standard_normal((d, d))
    if kind == "complex":
        return m + 1j * rng.standard_normal((d, d))
    if kind == "signed-zero-imag":
        return m + 1j * np.where(rng.random((d, d)) < 0.5, -0.0, 0.0)
    if kind == "zeros":
        return np.where(rng.random((d, d)) < 0.5, np.copysign(0.0, m), m).astype(complex)
    return m.astype(complex)


def test_float_operations_match_numpy():
    """The flat-tuple float operators against the numpy arrays they
    replaced: entrywise results bit for bit, products and traces to
    rounding, decisions exactly."""
    rng = make_rng(12)
    tol = 10 * get_eps()
    for _ in range(200):
        d = int(rng.integers(1, 6))
        kinds = rng.choice(["real", "complex", "signed-zero-imag", "zeros"], size=2)
        x, y = (_random_float_matrix(rng, d, k) for k in kinds)
        a = HermitianOperator.from_entries(x, "float", validate=False)
        b = HermitianOperator.from_entries(y, "float", validate=False)
        assert a.to_complex_array().tobytes() == x.tobytes()
        assert repr(a.to_json()) == repr(_old_to_json(x))
        assert repr((a + b).to_json()) == repr(_old_to_json(x + y))
        assert repr((a - b).to_json()) == repr(_old_to_json(x - y))
        assert np.allclose((a @ b).to_complex_array(), x @ y, atol=1e-12)
        assert np.allclose(a.scale(-1.5).to_complex_array(), x * -1.5, atol=0)
        assert abs(a.trace() - np.trace(x)) <= 1e-12
        h = (x + x.conj().T) / 2
        assert HermitianOperator.from_entries(h, "float")._is_hermitian()
        step = rng.choice([0.5, 2.0]) * rng.choice([1, 1j]) * get_eps()
        near = h + step * np.eye(d, k=min(1, d - 1))
        assert HermitianOperator.from_entries(near, "float", validate=False)._is_hermitian() == (
            bool(np.all(np.abs(near - near.conj().T) <= get_eps())))
        shifted = x + rng.choice([0.5, 2.0]) * tol
        c = HermitianOperator.from_entries(shifted, "float", validate=False)
        assert c.close_to(a) == bool(np.all(np.abs(shifted - x) <= tol))
        assert a.is_zero() == bool(np.all(np.abs(x) <= tol))
        assert (a - a).is_zero()


def test_mixed_backend_rejected():
    a = HermitianOperator.identity(2, "float")
    b = HermitianOperator.identity(2, "exact")
    with pytest.raises(BackendError):
        a @ b


def test_projector_canonical_equality_float():
    # same subspace, different spanning sets
    p = Projector.from_ray([1, 1], "float")
    q = Projector.from_ray([2.0, 2.0], "float")
    assert p == q and hash(p) == hash(q)
    assert p != Projector.from_ray([1, -1], "float")


def test_projector_canonical_equality_exact():
    p = Projector.from_ray([1, 1, 0], "exact")
    q = Projector.from_ray([3, 3, 0], "exact")
    assert p == q and p.canonical_key == q.canonical_key


def test_from_span_matches_sum_of_rays():
    p = Projector.from_span([[1, 0, 0], [1, 1, 0]], "exact")
    assert p.rank == 2
    complement = p.complement()
    assert complement == Projector.from_ray([0, 0, 1], "exact")


def test_float_from_span_keeps_the_span_of_dependent_vectors():
    assert Projector.from_span([[1, 0, 0], [2, 0, 0], [0, 1, 0]], "float").rank == 2
    assert Projector.from_span([[0, 0], [1, 0]], "float").rank == 1


def test_float_from_span_matches_exact_on_dependent_spans():
    rng = make_rng(8)
    for _ in range(30):
        d = int(rng.integers(2, 5))
        k = int(rng.integers(1, d + 1))
        base = rng.integers(-2, 3, size=(k, d))
        mix = rng.integers(-2, 3, size=(int(rng.integers(1, 4)), k))
        vecs = [[int(x) for x in v] for v in np.vstack([base, mix @ base])[rng.permutation(k + len(mix))]]
        if not any(any(v) for v in vecs):
            continue
        exact = Projector.from_span(vecs, "exact")
        flt = Projector.from_span(vecs, "float")
        assert flt.rank == exact.rank
        assert np.allclose(flt.matrix.to_complex_array(), exact.matrix.to_complex_array(), atol=1e-9)


def test_projector_order_and_orthogonality():
    p0 = Projector.from_ray([1, 0, 0], "exact")
    p01 = Projector.from_span([[1, 0, 0], [0, 1, 0]], "exact")
    assert p0.leq(p01)
    assert not p01.leq(p0)
    assert p0.orthogonal_to(Projector.from_ray([0, 0, 1], "exact"))
    assert not p0.orthogonal_to(Projector.from_ray([1, 1, 0], "exact"))


def test_non_idempotent_rejected():
    with pytest.raises(ValidationError):
        Projector(HermitianOperator.from_entries([[2, 0], [0, 0]], "float"))


def test_density_validation():
    with pytest.raises(ValidationError):
        DensityMatrix(HermitianOperator.diag([0.7, 0.7], "float"))
    with pytest.raises(ValidationError):
        DensityMatrix(HermitianOperator.diag([1.5, -0.5], "float"))


def test_born_probability_range_and_values():
    rng = make_rng(11)
    for _ in range(20):
        rho = random_density(rng, 4)
        u = random_unitary(rng, 4)
        p = Projector.from_ray(u[:, 0], "float")
        v = born_probability(rho, p)
        assert 0.0 <= v <= 1.0


def test_born_probability_exact():
    rho = DensityMatrix.maximally_mixed(3, "exact")
    p = Projector.from_ray([1, 0, 0], "exact")
    v = born_probability(rho, p)
    assert isinstance(v, QSqrt2)
    assert float(v) == pytest.approx(1 / 3)
    assert v >= QSqrt2(Fraction(1, 4)) and v != 1


def test_operator_json_roundtrip():
    a = HermitianOperator.from_entries([[1, 1j], [-1j, 0]], "float")
    b = HermitianOperator.from_json(a.to_json())
    assert b.close_to(a)


def test_float_predicates_follow_current_eps():
    # tr(PQ) is about 1e-6 and tr(PR) about 1 - 1e-6: decided within
    # 10 * 1e-9 and again within 10 * 1e-5, whatever was decided before
    old = get_eps()
    try:
        set_eps(1e-9)
        p = Projector.from_ray([1, 0], "float")
        q = Projector.from_ray([1e-3, 1], "float")
        r = Projector.from_ray([1, 1e-3], "float")
        assert not p.orthogonal_to(q) and not p.leq(r)
        set_eps(1e-5)
        assert p.orthogonal_to(q) and p.leq(r)
    finally:
        set_eps(old)


def test_float_projector_equality_agrees_with_hash():
    # [0,0] entries on either side of a rounding edge of the canonical key
    def proj(a):
        return Projector.from_ray([math.sqrt(a), math.sqrt(1 - a)], "float")

    p, q = proj(0.50000049999), proj(0.50000050001)
    assert (p == q) == (p.canonical_key == q.canonical_key)
    assert p != q or hash(p) == hash(q)
