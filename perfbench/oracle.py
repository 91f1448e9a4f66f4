"""Answers computed apart from qcontexts, for checking its reports.

Nothing here imports the package under test. Exact ray sets use integer
pairs (a, b) for a + b*sqrt(2); float posets use numpy. Both reduce to one
boolean matrix: which of the known vectors are orthogonal. Every subspace
the CLI builds from these inputs is the span of some rays of one orthogonal
frame, so with frames spanning the space:

- a vector lies in span(F[S]) iff it is orthogonal to every F[u], u not in S;
- a subspace is named by the set of known vectors it contains, which span it;
- atom b lies under atom a iff b's vector set is a subset of a's.

That makes context equality, the subalgebra order, meets and Born supports
combinatorial, with no matrix arithmetic.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations
from math import lcm

import numpy as np

# ---------------------------------------------------------------------------
# Z[sqrt 2] arithmetic on integer pairs
# ---------------------------------------------------------------------------


def _to_q2(entry):
    """A ray entry as (Fraction a, Fraction b) meaning a + b*sqrt(2)."""
    if isinstance(entry, list):
        return Fraction(entry[0]), Fraction(entry[1])
    return Fraction(entry), Fraction(0)


def integer_ray(entries):
    """Scale a ray with Q(sqrt 2) entries to Z[sqrt 2] entries (same ray)."""
    q = [_to_q2(e) for e in entries]
    den = 1
    for a, b in q:
        den = lcm(den, a.denominator, b.denominator)
    return tuple((int(a * den), int(b * den)) for a, b in q)


def z2_mul(x, y):
    return (x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def z2_dot(u, v):
    a = b = 0
    for x, y in zip(u, v):
        p = z2_mul(x, y)
        a += p[0]
        b += p[1]
    return a, b


def z2_cross(u, v):
    """Cross product of two real 3-vectors over Z[sqrt 2]."""
    def sub(p, q):
        return p[0] - q[0], p[1] - q[1]
    return (
        sub(z2_mul(u[1], v[2]), z2_mul(u[2], v[1])),
        sub(z2_mul(u[2], v[0]), z2_mul(u[0], v[2])),
        sub(z2_mul(u[0], v[1]), z2_mul(u[1], v[0])),
    )


def z2_parallel(u, v) -> bool:
    """Whether two nonzero vectors span the same ray (all 2x2 minors vanish)."""
    for i, j in combinations(range(len(u)), 2):
        p, q = z2_mul(u[i], v[j]), z2_mul(u[j], v[i])
        if p != q:
            return False
    return True


# ---------------------------------------------------------------------------
# ray sets: verdicts by parity and by 0/1 colouring
# ---------------------------------------------------------------------------


class ExactRays:
    """A ray-set fixture read from its JSON, with exact orthogonality."""

    def __init__(self, obj: dict):
        self.dim = int(obj["dim"])
        rays = []
        for r in obj["rays"]:
            v = integer_ray(r)
            if not any(x != (0, 0) for x in v):
                raise ValueError("zero ray")
            if not any(z2_parallel(v, w) for w in rays):
                rays.append(v)
        self.rays = rays
        n = len(rays)
        self.orth = [[z2_dot(rays[i], rays[j]) == (0, 0) for j in range(n)] for i in range(n)]
        self.bases = sorted({tuple(sorted(b)) for b in obj["bases"]})

    @classmethod
    def from_file(cls, path: str) -> "ExactRays":
        with open(path) as fh:
            return cls(json.load(fh))

    def bases_orthogonal(self) -> bool:
        return all(len(b) == self.dim and all(self.orth[i][j] for i, j in combinations(b, 2))
                   for b in self.bases)

    def orthogonal_pairs(self):
        n = len(self.rays)
        return [(i, j) for i in range(n) for j in range(i + 1, n) if self.orth[i][j]]

    def parity_obstruction(self) -> bool:
        """The parity proof: an odd number of bases with every ray in an even
        number of them admits no colouring with exactly one 1 per basis."""
        return len(self.bases) % 2 == 1 and all(c % 2 == 0 for c in self.ray_basis_counts())

    def ray_basis_counts(self):
        counts = [0] * len(self.rays)
        for b in self.bases:
            for i in b:
                counts[i] += 1
        return counts

    def colourable(self, pairs: bool) -> bool:
        """Whether a 0/1 colouring gives exactly one 1 in every basis (and,
        with pairs, never 1 on two orthogonal rays). A global section of the
        context poset induces such a colouring, so False means no section."""
        n = len(self.rays)
        value = [None] * n
        forbid = [[j for j in range(n) if self.orth[i][j]] for i in range(n)] if pairs else None

        def assign(changes, i, v):
            if value[i] is None:
                value[i] = v
                changes.append(i)
                return True
            return value[i] == v

        def place(k):
            if k == len(self.bases):
                return True
            basis = self.bases[k]
            ones = [i for i in basis if value[i] == 1]
            if len(ones) > 1:
                return False
            options = ones if ones else [i for i in basis if value[i] is None]
            for pick in options:
                changes = []
                ok = all(assign(changes, i, 1 if i == pick else 0) for i in basis)
                if ok and forbid is not None:
                    ok = all(assign(changes, j, 0) for j in forbid[pick])
                if ok and place(k + 1):
                    return True
                for i in changes:
                    value[i] = None
            return False

        return place(0)


# ---------------------------------------------------------------------------
# the frame poset oracle
# ---------------------------------------------------------------------------


def set_partitions(items):
    """Every partition of a list, as lists of blocks."""
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1:]
        yield [[head]] + part


class FramePoset:
    """Contexts as partitions of orthogonal frames, decided on the
    orthogonality matrix of the known vectors.

    ``vectors`` are kept for the caller; only ``orth[i][j]``, whether
    vectors i and j are orthogonal, is used here. ``frames``: tuples of
    vector indices, each an orthogonal basis of the whole space.
    ``generators``: (frame index, partition of positions) pairs. With
    ``close`` the family is closed under pairwise meets, as the CLI does for
    ray sets. The trivial context is always added.
    """

    def __init__(self, vectors, orth, frames, generators, close: bool):
        self.vectors = vectors
        self.orth = orth
        self.frames = [tuple(f) for f in frames]
        self.n_vectors = len(orth)
        self._keys = {}
        contexts = {}
        for f, part in generators:
            c = self._context(f, part)
            contexts.setdefault(c[0], c)
        d = len(self.frames[0])
        triv = self._context(0, [list(range(d))])
        contexts.setdefault(triv[0], triv)
        if close:
            todo = list(contexts.values())
            done = []
            while todo:
                c = todo.pop()
                for other in done:
                    m = self._meet(c, other)
                    if m[0] not in contexts:
                        contexts[m[0]] = m
                        todo.append(m)
                done.append(c)
        # each context is (key, frame index, blocks of frame positions); the
        # key is the set of its atoms, each atom the set of vectors it holds
        self.contexts = list(contexts.values())
        self.n = len(self.contexts)
        self.n_atoms = [len(c[0]) for c in self.contexts]
        self.below = [[j for j in range(self.n) if self._leq(self.contexts[j], self.contexts[i])]
                      for i in range(self.n)]

    def _atom_key(self, f, block):
        k = (f, frozenset(block))
        hit = self._keys.get(k)
        if hit is None:
            frame = self.frames[f]
            outside = [frame[u] for u in range(len(frame)) if u not in k[1]]
            hit = frozenset(v for v in range(self.n_vectors)
                            if all(self.orth[v][w] for w in outside))
            self._keys[k] = hit
        return hit

    def _context(self, f, part):
        blocks = tuple(frozenset(b) for b in part)
        key = frozenset(self._atom_key(f, b) for b in blocks)
        return key, f, blocks

    def _meet(self, c1, c2):
        """Merge atoms of c1 joined through non-orthogonal atoms of c2."""
        _, f, blocks1 = c1
        atoms1 = [self._atom_key(f, b) for b in blocks1]
        atoms2 = list(c2[0])
        parent = list(range(len(atoms1)))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for a2 in atoms2:
            touching = [i for i, a1 in enumerate(atoms1) if not self._atoms_orthogonal(a1, a2)]
            for i in touching[1:]:
                ri, r0 = find(i), find(touching[0])
                if ri != r0:
                    parent[ri] = r0
        groups = {}
        for i, b in enumerate(blocks1):
            groups.setdefault(find(i), set()).update(b)
        return self._context(f, [sorted(g) for g in groups.values()])

    def _atoms_orthogonal(self, a, b):
        return all(self.orth[x][y] for x in a for y in b)

    @staticmethod
    def _leq(lo, hi):
        """lo below hi: every atom of hi lies under some atom of lo."""
        return all(any(b <= a for a in lo[0]) for b in hi[0])

    # -- counts the reports carry ------------------------------------------

    def proper_pairs(self):
        return [(j, i) for i in range(self.n) for j in self.below[i] if j != i]

    def maximal(self):
        """Indices of the contexts below no other."""
        lower = {lo for lo, _ in self.proper_pairs()}
        return [i for i in range(self.n) if i not in lower]

    def chain_count(self) -> int:
        """Chains v3 < v2 < v1."""
        strictly_below = [len(b) - 1 for b in self.below]
        return sum(strictly_below[mid] for mid, _ in self.proper_pairs())

    def naturality_squares(self) -> int:
        return sum(1 << self.n_atoms[hi] for _, hi in self.proper_pairs())

    def _supports(self, nonzero):
        """Per context, (atom, has positive Born weight) for a pure state;
        ``nonzero[v]``: the state is not orthogonal to vector v. An atom's
        weight is the sum of its frame rays' weights."""
        out = []
        for _, f, blocks in self.contexts:
            frame = self.frames[f]
            out.append([(self._atom_key(f, b), any(nonzero[frame[u]] for u in b))
                        for b in blocks])
        return out

    def support_sizes(self, nonzero):
        """Per context, the number of atoms with positive weight."""
        return [sum(w for _, w in atoms) for atoms in self._supports(nonzero)]

    def sieve_profile(self, nonzero):
        """Per context, (atom count, down-set size, sorted sieve sizes of the
        r = 1 valuation of every lattice element). The multiset of these
        does not depend on how the CLI orders atoms or names contexts."""
        support = self._supports(nonzero)
        out = []
        for hi in range(self.n):
            atoms_hi = [a for a, _ in support[hi]]
            k = len(atoms_hi)
            # per lower stage: for each of its weighted atoms, the mask of
            # upper atoms lying under it; a mask's coarse-graining carries
            # weight 1 iff it meets every such mask
            needs = []
            for lo in self.below[hi]:
                need = []
                for a_lo, weighted in support[lo]:
                    if weighted:
                        need.append(sum(1 << i for i, a in enumerate(atoms_hi) if a <= a_lo))
                needs.append(need)
            sizes = sorted(sum(1 for need in needs if all(mask & m for m in need))
                           for mask in range(1 << k))
            out.append((k, len(self.below[hi]), tuple(sizes)))
        return sorted(out)


# ---------------------------------------------------------------------------
# inputs as frame posets
# ---------------------------------------------------------------------------


def exact_rays_poset(rays: ExactRays, pairs: bool, coarsenings: bool) -> FramePoset:
    """The poset the CLI builds from a ray set with --rays (closed under
    meets), with --pairs and --coarsenings as given."""
    vectors = list(rays.rays)
    frames = [tuple(b) for b in rays.bases]
    if pairs:
        if rays.dim != 3:
            raise ValueError("pair contexts are modelled for d = 3 only")
        for i, j in rays.orthogonal_pairs():
            c = z2_cross(vectors[i], vectors[j])
            k = next((m for m, w in enumerate(vectors) if z2_parallel(c, w)), None)
            if k is None:
                vectors.append(c)
                k = len(vectors) - 1
            frames.append((i, j, k))
    n = len(vectors)
    orth = [[z2_dot(vectors[i], vectors[j]) == (0, 0) for j in range(n)] for i in range(n)]
    d = rays.dim
    singletons = [[u] for u in range(d)]
    poset = FramePoset(vectors, orth, frames, [(f, singletons) for f in range(len(frames))],
                       close=True)
    if not coarsenings:
        return poset
    # coarsenings of the maximal contexts, without meet closure
    gens = []
    for i in poset.maximal():
        _, f, blocks = poset.contexts[i]
        for part in set_partitions(list(blocks)):
            gens.append((f, [sorted(set().union(*blk)) for blk in part]))
    return FramePoset(vectors, orth, frames, gens, close=False)


def exact_state_nonzero(vectors, psi) -> list:
    """For a pure state vec:psi, whether each vector has nonzero overlap."""
    p = integer_ray(psi)
    return [z2_dot(v, p) != (0, 0) for v in vectors]


FLOAT_TOL = 1e-9


def float_poset(frames_np, generators) -> FramePoset:
    """Frame poset of float orthonormal bases (d x d column arrays).

    Columns equal across bases are one vector. Generic random bases keep
    every |<u, v>| either at rounding level or far above FLOAT_TOL.
    """
    vectors = []
    frames = []
    for b in frames_np:
        idx = []
        for c in range(b.shape[1]):
            col = b[:, c]
            k = next((m for m, w in enumerate(vectors) if abs(abs(np.dot(w, col)) - 1) < FLOAT_TOL),
                     None)
            if k is None:
                vectors.append(col)
                k = len(vectors) - 1
            idx.append(k)
        frames.append(tuple(idx))
    g = np.abs(np.array(vectors) @ np.array(vectors).T)
    orth = (g < FLOAT_TOL).tolist()
    return FramePoset(vectors, orth, frames, generators, close=False)


def float_state_nonzero(vectors, psi) -> list:
    return [abs(float(np.dot(v, psi))) > FLOAT_TOL for v in vectors]
