"""Exact spans, annihilating masks and Pauli contexts from the integer form.

Exact `Projector.from_span` adds the ray projector of each vector's residual
against the span so far; exact `largest_annihilating_mask` applies each atom
to the vector in integers. The oracles here are built apart from that code:
spans are compared with the sum of the ray projectors of their
`ExactComplex` Gram-Schmidt basis and with the float backend, and the Pauli
contexts, built from their joint eigenrays, with the ids the row-reduction
code gave them and with the products of their Pauli eigenvalues.
"""

import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from qcontexts.contexts import Context
from qcontexts.intervals import largest_annihilating_mask
from qcontexts.linalg import (
    DensityMatrix,
    HermitianOperator,
    Projector,
    ValidationError,
    born_probability,
)
from qcontexts.scalars import EC_ZERO, ExactComplex, QSqrt2, exact_entry


def random_real(rng):
    return QSqrt2(Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3])),
                  rng.choice([0, 0, 1, -1, Fraction(1, 2)]))


def random_entry(rng):
    """An entry with sqrt 2 and, half the time, imaginary parts; zero one
    time in five."""
    if rng.random() < 0.2:
        return EC_ZERO
    return ExactComplex(random_real(rng), random_real(rng) if rng.random() < 0.5 else QSqrt2(0))


def random_vector(rng, d):
    return [random_entry(rng) for _ in range(d)]


def gram_schmidt(vecs):
    """Orthogonal (unnormalized) vectors with the span of vecs, over
    ExactComplex; dependent vectors are dropped."""
    basis = []
    for v in vecs:
        w = list(v)
        for u in basis:
            nu = sum((x.conj() * x for x in u), EC_ZERO)
            c = sum((x.conj() * y for x, y in zip(u, w)), EC_ZERO) / nu
            w = [y - c * x for x, y in zip(u, w)]
        if any(not x.is_zero() for x in w):
            basis.append(w)
    return basis


def ray_sum(vecs, dim):
    total = HermitianOperator.zero(dim, "exact")
    for v in vecs:
        total = total + Projector.from_ray(v, "exact").matrix
    return total


def apply(op, v):
    return [sum((x * y for x, y in zip(row, v)), EC_ZERO) for row in op.entries()]


def random_orthogonal_basis(rng, d):
    while True:
        basis = gram_schmidt(random_vector(rng, d) for _ in range(d))
        if len(basis) == d:
            return basis


# -- spans --------------------------------------------------------------------


def test_exact_span_projects_onto_the_span():
    rng = random.Random(41)
    for _ in range(120):
        d = rng.randint(1, 4)
        vecs = [random_vector(rng, d) for _ in range(rng.randint(1, d + 1))]
        if rng.random() < 0.4:
            vecs.append([random_entry(rng) * x for x in vecs[0]])
            rng.shuffle(vecs)
        basis = gram_schmidt(vecs)
        p = Projector.from_span(vecs, "exact")
        assert (p.matrix @ p.matrix).data == p.matrix.data
        for v in vecs:
            assert apply(p.matrix, v) == v
        assert p.matrix.data == ray_sum(basis, d).data
        assert p.rank == len(basis)
        if basis:
            flt = Projector.from_span([[complex(x) for x in v] for v in vecs], "float")
            assert flt.rank == p.rank
            assert np.allclose(flt.matrix.to_complex_array(), p.matrix.to_complex_array(),
                               atol=1e-9, rtol=0)


@pytest.mark.parametrize("vecs", [[[1, 0, 0], [0, 1]], [[1, 0], [0, 1, 0]],
                                  [[1, 0], [0, 0, 1]]],
                         ids=["short", "long", "long-outside-span"])
def test_exact_span_of_vectors_of_different_lengths_is_rejected(vecs):
    with pytest.raises(ValidationError):
        Projector.from_span(vecs, "exact")


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_span_of_no_vectors_and_masks_of_wrong_length_are_rejected(backend):
    with pytest.raises(ValidationError):
        Projector.from_span([], backend)
    ctx = Context([Projector.from_ray(v, backend) for v in ([1, 0, 0], [0, 1, 0], [0, 0, 1])])
    for psi in ([1, 0], [1, 0, 0, 5]):
        with pytest.raises(ValidationError):
            largest_annihilating_mask(psi, ctx)


# -- no field arithmetic ------------------------------------------------------


def test_spectra_spans_and_masks_do_no_exact_complex_arithmetic(monkeypatch):
    rng = random.Random(3)
    basis = random_orthogonal_basis(rng, 3)
    vecs = [random_vector(rng, 3), random_vector(rng, 3)]
    psi = [exact_entry(x) for x in basis[0]]
    ctx = Context([Projector.from_ray(v, "exact") for v in basis])

    def refuse(self, other):
        raise AssertionError("ExactComplex arithmetic")

    for name in ("__add__", "__sub__", "__mul__", "__truediv__"):
        monkeypatch.setattr(ExactComplex, name, refuse)
    assert Projector.from_span(vecs, "exact").rank == 2
    assert largest_annihilating_mask(psi, ctx) == 0b110


def test_exact_annihilating_mask_is_where_the_born_weight_vanishes():
    rng = random.Random(5)
    for _ in range(40):
        d = rng.randint(2, 4)
        basis = random_orthogonal_basis(rng, d)
        ctx = Context([Projector.from_ray(v, "exact") for v in basis])
        # a combination of some basis vectors, so that the others annihilate it
        psi = [EC_ZERO] * d
        for v in rng.sample(basis, rng.randint(1, d)):
            c = random_entry(rng)
            psi = [x + c * y for x, y in zip(psi, v)]
        if all(x.is_zero() for x in psi):
            continue
        rho = DensityMatrix.pure(psi, "exact")
        expected = sum(1 << i for i, atom in enumerate(ctx.atoms)
                       if born_probability(rho, atom) == 0)
        assert largest_annihilating_mask(psi, ctx) == expected


# -- Pauli contexts -----------------------------------------------------------

PAULI = {"I": [[1, 0], [0, 1]], "X": [[0, 1], [1, 0]],
         "Y": [[0, ExactComplex(0, -1)], [ExactComplex(0, 1), 0]]}


def pauli(word):
    m = [[ExactComplex(1)]]
    for ch in word:
        f = [[exact_entry(x) for x in row] for row in PAULI[ch]]
        m = [[x * y for x in row for y in frow] for row in m for frow in f]
    return HermitianOperator.from_entries(m, "exact")


def test_peres_mermin_row_and_mermin_star_contexts():
    # the joint eigenrays: products of X eigenvectors for the row, and the
    # GHZ pairs |x> +- |x with every bit flipped> for the star
    row = Context([Projector.from_ray([1, a, b, a * b], "exact")
                   for a, b in product((1, -1), repeat=2)])
    star = Context([Projector.from_ray([int(k == x) + s * int(k == 7 - x) for k in range(8)],
                                       "exact")
                    for x in range(4) for s in (1, -1)])
    # the ids the row-reduction eigenprojectors gave these contexts
    assert (row.id, star.id) == ("1f6e98cfcd234968", "ccee9a48ef2476b4")
    # XI IX = XX, while XXX XYY YXY YYX = -I
    for ctx, words, parity in ((row, ("XI", "IX", "XX"), 1),
                               (star, ("XXX", "XYY", "YXY", "YYX"), -1)):
        ops = [pauli(w) for w in words]
        for atom in ctx.atoms:
            signs = 1
            for op in ops:
                image = op @ atom.matrix
                sign = 1 if image.close_to(atom.matrix) else -1
                assert image.close_to(atom.matrix.scale(sign))
                signs *= sign
            assert signs == parity
