"""The benchmark's workloads: CLI commands, their inputs and expected answers.

A workload is a list of operations. Each operation is one CLI command run in
a fresh process, plus the answer its report is checked against, computed
here apart from the program (see oracle.py). One round runs every operation
once, in order.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

import oracle

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(ROOT, "src", "qcontexts", "data")

# Float posets: d = 5, four bases, each the previous one with a pair of
# columns rotated. Consecutive bases share three columns and the plane of
# the rotated pair, so 208 coarsenings give 163 distinct contexts and 1,089
# proper order pairs, whatever the seed.
FLOAT_DIM = 5
FLOAT_ROTATIONS = ((0, 1), (1, 2), (2, 3))
# every |<u, v>| among columns and state is either ~0 or at least this
GENERIC_GAP = 1e-3


@dataclass
class Operation:
    """One CLI command and the expected answer for its report.

    ``kind`` selects the checker; ``expect`` holds the oracle's numbers.
    ``known_fault``: the problems this operation reports every time because
    of a named fault in the program; they count it as failed, not as wrong.
    """

    name: str
    argv: list
    kind: str
    expect: dict
    known_fault: frozenset = field(default_factory=frozenset)


def _rays(name: str) -> oracle.ExactRays:
    return oracle.ExactRays.from_file(os.path.join(FIXTURES, name + ".json"))


def _ks_check(name: str, pairs: bool) -> Operation:
    rays = _rays(name)
    if not rays.bases_orthogonal():
        raise RuntimeError(f"{name}: a listed basis is not orthogonal")
    colourable = rays.colourable(pairs)
    if rays.parity_obstruction() and colourable:
        raise RuntimeError(f"{name}: colouring search contradicts the parity proof")
    if name == "ks18" and not (rays.parity_obstruction() and len(rays.bases) == 9
                               and set(rays.ray_basis_counts()) == {2}):
        raise RuntimeError("ks18: not 9 bases with every ray in exactly 2 of them")
    poset = oracle.exact_rays_poset(rays, pairs=pairs, coarsenings=False)
    argv = ["ks-check", "--rays", name] + (["--pairs"] if pairs else [])
    return Operation(" ".join(argv[1:]), argv, "ks-check", {
        "colourable": colourable,
        "n_contexts": poset.n,
        "n_maximal": len(poset.maximal()),
    })


def _poset_expect(poset: oracle.FramePoset, nonzero) -> dict:
    return {
        "n_contexts": poset.n,
        "proper_pairs": len(poset.proper_pairs()),
        "chains": poset.chain_count(),
        "squares": poset.naturality_squares(),
        "support_sizes": sorted(poset.support_sizes(nonzero)),
        "sieve_profile": poset.sieve_profile(nonzero),
    }


def ks_exact(seed: int, workdir: str):
    return [
        _ks_check("ks18", False),
        _ks_check("peres33", False),
        _ks_check("peres33", True),
        _ks_check("dim2_two_bases", False),
    ]


def presheaf_exact(seed: int, workdir: str):
    ks18 = oracle.exact_rays_poset(_rays("ks18"), pairs=False, coarsenings=True)
    mixed = [True] * len(ks18.vectors)
    peres = oracle.exact_rays_poset(_rays("peres33"), pairs=True, coarsenings=False)
    psi = ["1", "1", "0"]
    return [
        Operation("intervals ks18 coarsenings", ["intervals", "--rays", "ks18", "--coarsenings"],
                  "intervals", dict(_poset_expect(ks18, mixed), pure=False)),
        # check_weight_family converts exact Q(sqrt 2) weights to float and
        # compares them with eps = 0, so this law fails though it holds.
        Operation("verify-axioms peres33 pairs vec:1,1,0",
                  ["verify-axioms", "--rays", "peres33", "--pairs", "--state", "vec:" + ",".join(psi)],
                  "verify-axioms",
                  _poset_expect(peres, oracle.exact_state_nonzero(peres.vectors, psi)),
                  known_fault=frozenset({"exit code 1, expected 0", "ok is false",
                                         "checks.state_global_element.ok is false"})),
    ]


def _generic(vectors) -> bool:
    g = np.abs(np.array(vectors) @ np.array(vectors).T)
    off = g[~np.eye(len(vectors), dtype=bool)]
    return bool(np.all((off < 1e-12) | (off > GENERIC_GAP)))


def float_inputs(seed: int):
    """Bases and a pure state, drawn from the seed alone.

    The state is a random unit vector in the plane of the first basis's
    first two columns, so it is orthogonal to the other atoms of that basis
    and the support differs from stage to stage.
    """
    rng = np.random.default_rng(seed)
    while True:
        q, _ = np.linalg.qr(rng.standard_normal((FLOAT_DIM, FLOAT_DIM)))
        bases = [q]
        for i, j in FLOAT_ROTATIONS:
            prev = bases[-1]
            b = prev.copy()
            t = rng.uniform(0.2, 1.3)
            c, s = np.cos(t), np.sin(t)
            b[:, i] = c * prev[:, i] + s * prev[:, j]
            b[:, j] = -s * prev[:, i] + c * prev[:, j]
            bases.append(b)
        phi = rng.uniform(0.2, 1.3)
        psi = np.cos(phi) * q[:, 0] + np.sin(phi) * q[:, 1]
        columns = {tuple(b[:, k]) for b in bases for k in range(FLOAT_DIM)}
        if _generic([np.array(c) for c in columns] + [psi]):
            return bases, psi


def _operator_json(m: np.ndarray) -> dict:
    return {"dim": int(m.shape[0]), "re": [[float(x) for x in row] for row in m],
            "im": [[0.0] * m.shape[0] for _ in m]}


def float_operations(bases, psi, workdir: str):
    """verify-axioms, valuate and intervals at r = 1 on the poset of every
    coarsening of the given orthonormal bases, in the pure state psi."""
    dim = bases[0].shape[0]
    parts = list(oracle.set_partitions(list(range(dim))))
    contexts = []
    for b in bases:
        for part in parts:
            contexts.append({"atoms": [_operator_json(b[:, blk] @ b[:, blk].T) for blk in part]})
    path = os.path.join(workdir, "float_poset.json")
    with open(path, "w") as fh:
        json.dump({"dim": dim, "contexts": contexts}, fh)
    poset = oracle.float_poset(bases, [(f, part) for f in range(len(bases)) for part in parts])
    state = "vec:" + ",".join(repr(float(x)) for x in psi)
    expect = dict(_poset_expect(poset, oracle.float_state_nonzero(poset.vectors, psi)), pure=True)
    common = ["--poset", path, "--state", state]
    return [
        Operation("verify-axioms float", ["verify-axioms"] + common, "verify-axioms", expect),
        Operation("valuate float", ["valuate"] + common, "valuate", expect),
        Operation("intervals float", ["intervals"] + common, "intervals", expect),
    ]


def presheaf_float(seed: int, workdir: str):
    bases, psi = float_inputs(seed)
    return float_operations(bases, psi, workdir)


WORKLOADS = {
    "ks-exact": ks_exact,
    "presheaf-exact": presheaf_exact,
    "presheaf-float": presheaf_float,
}
