"""The backtracking section search must agree with a naive
product-of-choices reference, in the same enumeration order."""

from itertools import product

import numpy as np
import pytest

from qcontexts.ks import search_sections


def random_problem(rng, k_max=4, atoms_max=4, slots_max=5):
    k = int(rng.integers(1, k_max + 1))
    n_slots = int(rng.integers(0, slots_max + 1))
    natoms = [int(rng.integers(1, atoms_max + 1)) for _ in range(k)]
    constraints = []
    for i in range(k):
        if n_slots:
            nchild = int(rng.integers(0, n_slots + 1))
            slots = rng.choice(n_slots, size=nchild, replace=False)
        else:
            slots = []
        constraints.append(tuple(
            (int(s), tuple(int(rng.integers(0, 3)) for _ in range(natoms[i])))
            for s in slots
        ))
    return natoms, constraints, n_slots


def reference_solutions(natoms, constraints, n_slots):
    out = []
    for combo in product(*(range(n) for n in natoms)):
        slots = {}
        ok = True
        for i, a in enumerate(combo):
            for s, rmap in constraints[i]:
                if slots.setdefault(s, rmap[a]) != rmap[a]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(combo)
    return out


@pytest.mark.parametrize("seed", range(30))
def test_kernels_match_reference(seed):
    rng = np.random.default_rng(seed)
    prob = random_problem(rng)
    expected = reference_solutions(*prob)
    got, _ = search_sections(*prob, True, 0)
    assert got == expected


def test_first_solution_and_limit():
    rng = np.random.default_rng(99)
    for _ in range(10):
        prob = random_problem(rng)
        all_solutions, _ = search_sections(*prob, True, 0)
        first, _ = search_sections(*prob, False, 1)
        limited, _ = search_sections(*prob, True, 2)
        assert first == all_solutions[:1]
        assert limited == all_solutions[:2]
