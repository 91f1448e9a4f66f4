"""Shared generators for randomized suites.

Everything is seeded; posets are built from random orthonormal bases plus
coarsenings and rotated variants sharing columns, so the resulting posets
have nontrivial meets.
"""

import json
import os
import sys

import numpy as np
import pytest

from qcontexts.contexts import Context, _bits, build_poset
from qcontexts.linalg import DensityMatrix, HermitianOperator, Projector


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def float_workload(seed: int, workdir: str):
    """The poset file and the pure-state spec of the ``presheaf-float``
    benchmark workload: a d = 5 poset of 163 contexts, written to workdir."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    bases, psi = workloads.float_inputs(seed)
    argv = workloads.float_operations(bases, psi, workdir)[0].argv
    return argv[argv.index("--poset") + 1], argv[argv.index("--state") + 1]


def float_poset_json(seed: int, workdir: str) -> dict:
    """The poset file of the ``presheaf-float`` benchmark workload."""
    path, _ = float_workload(seed, workdir)
    with open(path) as fh:
        return json.load(fh)


def sieve_members(poset, sieve: int) -> frozenset:
    """The context ids of a sieve: bit k is the k-th id of poset.ids()."""
    ids = poset.ids()
    return frozenset(ids[k] for k in _bits(sieve))


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_unitary(rng, d: int) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    # fix phases so the factorization is unique-ish
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


def context_from_columns(u: np.ndarray) -> Context:
    return Context([Projector.from_ray(u[:, i], "float") for i in range(u.shape[1])])


def coarsen_columns(u: np.ndarray, blocks) -> Context:
    """Context whose atoms are column-span projectors over the given blocks."""
    atoms = [Projector.from_span([u[:, i] for i in block], "float") for block in blocks]
    return Context(atoms)


def rotate_pair(u: np.ndarray, i: int, j: int, theta: float) -> np.ndarray:
    """Rotate two columns inside their span; the rest stay shared."""
    v = u.copy()
    c, s = np.cos(theta), np.sin(theta)
    v[:, i] = c * u[:, i] + s * u[:, j]
    v[:, j] = -s * u[:, i] + c * u[:, j]
    return v


def random_poset(rng, d: int):
    """A meet-closed float-backend poset with shared structure (<= ~10 contexts)."""
    u = random_unitary(rng, d)
    gens = [context_from_columns(u)]
    if d >= 3:
        idx = list(range(d))
        rng.shuffle(idx)
        blocks = [idx[:2]] + [[i] for i in idx[2:]]
        gens.append(coarsen_columns(u, blocks))
        v = rotate_pair(u, idx[0], idx[1], float(rng.uniform(0.3, 1.2)))
        gens.append(context_from_columns(v))
    else:
        v = rotate_pair(u, 0, 1, float(rng.uniform(0.3, 1.2)))
        gens.append(context_from_columns(v))
    return build_poset(gens, close_under_meet=True)


def random_density(rng, d: int) -> DensityMatrix:
    w = rng.dirichlet(np.ones(d))
    u = random_unitary(rng, d)
    m = (u * w) @ u.conj().T
    m = (m + m.conj().T) / 2
    return DensityMatrix(HermitianOperator.from_entries(m.astype(complex), "float"))


def random_pure(rng, d: int) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


@pytest.fixture
def rng():
    return make_rng(20260823)
