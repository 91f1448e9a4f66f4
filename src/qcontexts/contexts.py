"""Contexts and the finite context poset.

A context is a commutative operator algebra identified, in finite dimension,
with its atomic partition of the identity. The poset of contexts under the
subalgebra order is the base category everything else in this package is
built over, together with the spectral presheaf (one multiplicative
functional per atom) and the state presheaf (per-atom weights).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import combinations

from .linalg import (
    DensityMatrix,
    HermitianOperator,
    Projector,
    ValidationError,
    _product_trace,
    born_probability,
    get_eps,
    spectral_decompose,
)
from .scalars import QSqrt2


class Context:
    """A partition of the identity into mutually orthogonal nonzero atoms."""

    __slots__ = ("dim", "backend", "atoms", "id")

    def __init__(self, atoms, validate: bool = True):
        atoms = sorted(atoms, key=lambda p: p.canonical_key)
        if not atoms:
            raise ValidationError("a context needs at least one atom")
        dim = atoms[0].dim
        backend = atoms[0].backend
        if validate:
            if any(a.dim != dim or a.backend != backend for a in atoms):
                raise ValidationError("atoms disagree on dim or backend")
            if any(a.is_zero() for a in atoms):
                raise ValidationError("zero atom in context")
            for a, b in combinations(atoms, 2):
                if not a.orthogonal_to(b):
                    raise ValidationError("atoms are not mutually orthogonal")
            total = atoms[0].matrix
            for a in atoms[1:]:
                total = total + a.matrix
            if not total.close_to(HermitianOperator.identity(dim, backend)):
                raise ValidationError("atoms do not sum to the identity")
        self.dim = dim
        self.backend = backend
        self.atoms = tuple(atoms)
        h = hashlib.sha256()
        for a in self.atoms:
            h.update(repr(a.canonical_key).encode())
        self.id = h.hexdigest()[:16]

    @classmethod
    def trivial(cls, dim: int, backend: str = "float"):
        return cls([Projector.identity(dim, backend)], validate=False)

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    def is_trivial(self) -> bool:
        return self.n_atoms == 1

    def __eq__(self, other):
        return isinstance(other, Context) and self.id == other.id

    def __hash__(self):
        return hash(self.id)

    def __repr__(self):
        return f"Context(dim={self.dim}, atoms={self.n_atoms}, id={self.id!r})"

    def contains_operator(self, a: HermitianOperator) -> bool:
        """True iff A is constant on each atom, i.e. A = sum_i kappa_i(A) A_i."""
        recon = None
        for atom in self.atoms:
            coeff = _atom_coefficient(a, atom)
            term = atom.matrix.scale(coeff)
            recon = term if recon is None else recon + term
        return recon.close_to(a)

    def atom_coefficients(self, a: HermitianOperator):
        """The per-atom values of an operator in this algebra."""
        return tuple(_atom_coefficient(a, atom) for atom in self.atoms)


def _atom_coefficient(a: HermitianOperator, atom: Projector):
    t = _product_trace(a, atom.matrix)
    if a.backend == "exact":
        return t / QSqrt2(atom.rank)
    return t.real / atom.rank


@dataclass(frozen=True)
class SpectralFunctional:
    """The multiplicative functional picking out one atom of a context."""

    context_id: str
    index: int

    def __call__(self, a: HermitianOperator, context: Context):
        if context.id != self.context_id:
            raise ValidationError("functional applied at the wrong context")
        return _atom_coefficient(a, context.atoms[self.index])


def spectrum(v: Context):
    """One functional per atom, in atom order."""
    return [SpectralFunctional(v.id, i) for i in range(v.n_atoms)]


@dataclass(frozen=True)
class StateOnContext:
    """A state on a context: non-negative per-atom weights summing to 1."""

    context_id: str
    weights: tuple

    def __post_init__(self):
        total = sum(float(w) for w in self.weights)
        if abs(total - 1.0) > 1e-6:
            raise ValidationError("state weights do not sum to 1")


# ---------------------------------------------------------------------------
# generation of contexts
# ---------------------------------------------------------------------------


def algebra_from_operators(ops) -> Context:
    """Context generated by a commuting family of Hermitian operators.

    Atoms are the nonzero products of eigenprojectors across all inputs
    (the joint spectral decomposition). The empty family generates the
    trivial context.
    """
    if not ops:
        raise ValidationError("empty operator family; dimension unknown")
    dim, backend = ops[0].dim, ops[0].backend
    for i, a in enumerate(ops):
        for j in range(i + 1, len(ops)):
            if not a.commutes_with(ops[j]):
                raise ValidationError(f"operators {i} and {j} do not commute")
    parts = [Projector.identity(dim, backend)]
    for a in ops:
        eig = [p for _, p in spectral_decompose(a)]
        parts = _refine(parts, eig)
    return Context(parts, validate=False)


def algebra_from_projectors(ps, dim: int | None = None, backend: str = "float") -> Context:
    """Context generated by a commuting family of projectors.

    Atoms are the nonzero products over choices of each projector or its
    complement. The empty family gives the trivial context (dim required).
    """
    if not ps:
        if dim is None:
            raise ValidationError("empty projector family; pass dim")
        return Context.trivial(dim, backend)
    dim, backend = ps[0].dim, ps[0].backend
    for i, p in enumerate(ps):
        for j in range(i + 1, len(ps)):
            if not p.matrix.commutes_with(ps[j].matrix):
                raise ValidationError(f"projectors {i} and {j} do not commute")
    parts = [Projector.identity(dim, backend)]
    for p in ps:
        choices = [q for q in (p, p.complement()) if not q.is_zero()]
        parts = _refine(parts, choices)
    return Context(parts, validate=False)


def _refine(parts, splitters):
    out = []
    for part in parts:
        for q in splitters:
            prod = part.matrix @ q.matrix
            if prod.is_zero():
                continue
            out.append(Projector(prod))  # validates idempotency (commuting inputs)
    return out


# ---------------------------------------------------------------------------
# order and meets
# ---------------------------------------------------------------------------


def restriction_map(v2: Context, v1: Context):
    """For each atom of v1, the index of the atom of v2 above it, or None
    when some atom of v1 is under no atom of v2. Both families sum to the
    identity, so a map exists exactly when v2 is a coarsening of v1."""
    if v2.dim != v1.dim:
        raise ValidationError("dimension mismatch")
    out = []
    for a in v1.atoms:
        for j, b in enumerate(v2.atoms):
            if a.leq(b):
                out.append(j)
                break
        else:
            return None
    return tuple(out)


def is_subalgebra(v2: Context, v1: Context) -> bool:
    """True iff every atom of v2 is a sum of atoms of v1 (partition coarsening)."""
    return restriction_map(v2, v1) is not None


def restrict_functional(k: SpectralFunctional, v1: Context, v2: Context) -> SpectralFunctional:
    """Restriction of a spectral functional along a subalgebra inclusion:
    the atom of v2 containing atom k of v1."""
    if k.context_id != v1.id:
        raise ValidationError("functional does not live on the given context")
    rmap = restriction_map(v2, v1)
    if rmap is None:
        raise ValidationError("second context is not a subalgebra of the first")
    return SpectralFunctional(v2.id, rmap[k.index])


def meet(v1: Context, v2: Context) -> Context:
    """Largest context below both: merge atoms along the overlap graph."""
    if v1.dim != v2.dim:
        raise ValidationError("dimension mismatch")
    n1, n2 = v1.n_atoms, v2.n_atoms
    parent = list(range(n1 + n2))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for i in range(n1):
        for j in range(n2):
            if not v1.atoms[i].orthogonal_to(v2.atoms[j]):
                union(i, n1 + j)
    groups: dict[int, list[int]] = {}
    for i in range(n1):
        groups.setdefault(find(i), []).append(i)
    if len(groups) == n1:
        return v1
    if len(groups) == 1:
        return Context.trivial(v1.dim, v1.backend)
    atoms = []
    for idxs in groups.values():
        if len(idxs) == 1:
            atoms.append(v1.atoms[idxs[0]])
            continue
        m = v1.atoms[idxs[0]].matrix
        for i in idxs[1:]:
            m = m + v1.atoms[i].matrix
        atoms.append(Projector(m, validate=False))
    return Context(atoms, validate=False)


def all_coarsenings(v: Context):
    """Every context coarser than v (all merges of its atoms), incl. v itself."""
    out = []
    for part in _set_partitions(list(range(v.n_atoms))):
        atoms = []
        for block in part:
            m = v.atoms[block[0]].matrix
            for i in block[1:]:
                m = m + v.atoms[i].matrix
            atoms.append(Projector(m, validate=False))
        out.append(Context(atoms, validate=False))
    return out


def _set_partitions(items):
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1 :]
        yield [[head]] + part


# ---------------------------------------------------------------------------
# the poset
# ---------------------------------------------------------------------------


class ContextPoset:
    """A finite, inclusion-closed family of contexts with the subalgebra order.

    Immutable after construction; the trivial context is always present as
    the bottom element. Restriction maps (atom of a larger context -> the
    dominating atom of a smaller one) are precomputed for every order pair.
    """

    __slots__ = ("dim", "backend", "contexts", "leq", "down", "restriction", "bottom_id")

    def __init__(self, contexts: dict, leq, down, restriction, bottom_id):
        self.contexts = contexts
        some = next(iter(contexts.values()))
        self.dim = some.dim
        self.backend = some.backend
        self.leq = leq
        self.down = down
        self.restriction = restriction
        self.bottom_id = bottom_id

    def __len__(self):
        return len(self.contexts)

    def ids(self):
        return sorted(self.contexts)

    def is_leq(self, sub: str, sup: str) -> bool:
        return (sub, sup) in self.leq

    def below(self, cid: str):
        """All context ids <= cid, sorted (includes cid itself)."""
        return self.down[cid]

    def proper_pairs(self):
        """All (sub, sup) pairs with sub strictly below sup, sorted."""
        return [(a, b) for (a, b) in sorted(self.leq) if a != b]

    def maximal_ids(self):
        tops = []
        for cid in self.ids():
            if not any(cid != other and self.is_leq(cid, other) for other in self.contexts):
                tops.append(cid)
        return tops

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "contexts": [
                {"atoms": [a.to_json() for a in self.contexts[cid].atoms]}
                for cid in self.ids()
            ],
        }

    @classmethod
    def from_json(cls, obj: dict):
        dim = int(obj["dim"])
        gens = []
        for c in obj["contexts"]:
            atoms = [Projector.from_matrix(HermitianOperator.from_json(a)) for a in c["atoms"]]
            if atoms and atoms[0].dim != dim:
                raise ValidationError("context dimension disagrees with poset dimension")
            gens.append(Context(atoms))
        return build_poset(gens, close_under_meet=False)


def build_poset(generators, close_under_meet: bool = False, dim: int | None = None,
                backend: str = "float") -> ContextPoset:
    """Assemble a poset from generator contexts.

    Deduplicates, always adds the trivial context, optionally closes under
    pairwise meets to a fixed point, then computes the full order relation
    and the restriction maps.
    """
    if generators:
        dim = generators[0].dim
        backend = generators[0].backend
    elif dim is None:
        raise ValidationError("empty generator list; pass dim")
    contexts = {}
    for g in generators:
        if g.dim != dim or g.backend != backend:
            raise ValidationError("generators disagree on dim or backend")
        contexts[g.id] = g
    triv = Context.trivial(dim, backend)
    contexts[triv.id] = triv
    if close_under_meet:
        done = set()
        while True:
            added = []
            items = list(contexts.values())
            for i in range(len(items)):
                for j in range(i + 1, len(items)):
                    pair = (items[i].id, items[j].id)
                    if pair in done:
                        continue
                    done.add(pair)
                    m = meet(items[i], items[j])
                    if m.id not in contexts and all(m.id != n.id for n in added):
                        added.append(m)
            if not added:
                break
            for m in added:
                contexts[m.id] = m
    ids = sorted(contexts)
    leq = set()
    restriction = {}
    for a in ids:
        for b in ids:
            rmap = restriction_map(contexts[a], contexts[b])
            if rmap is not None:
                leq.add((a, b))
                restriction[(a, b)] = rmap
    down = {cid: tuple(sorted(x for x in ids if (x, cid) in leq)) for cid in ids}
    return ContextPoset(contexts, frozenset(leq), down, restriction, triv.id)


# ---------------------------------------------------------------------------
# the state presheaf
# ---------------------------------------------------------------------------


def restrict_state(rho: DensityMatrix, v: Context) -> StateOnContext:
    """Per-atom Born weights of a density matrix on a context."""
    if rho.dim != v.dim:
        raise ValidationError("dimension mismatch")
    return StateOnContext(v.id, tuple(born_probability(rho, a) for a in v.atoms))


def check_weight_family(family: dict, poset: ContextPoset) -> bool:
    """True iff per-stage weights push forward consistently along every pair.

    Exact weights are summed in Q(sqrt 2) and compared with ``==``; float
    weights agree within 1e-7.
    """
    exact = poset.backend == "exact"
    for sub, sup in poset.proper_pairs():
        w_sup = family[sup]
        w_sub = family[sub]
        rmap = poset.restriction[(sub, sup)]
        pushed = [QSqrt2(0) if exact else 0.0] * len(w_sub)
        for i, w in enumerate(w_sup):
            pushed[rmap[i]] += w if exact else float(w)
        if exact:
            differ = any(p != w for p, w in zip(pushed, w_sub))
        else:
            differ = any(abs(p - float(w)) > 1e-7 for p, w in zip(pushed, w_sub))
        if differ:
            return False
    return True


def check_state_global_element(rho: DensityMatrix, poset: ContextPoset) -> bool:
    """Whether the rho-induced family of states is a global element."""
    family = {cid: restrict_state(rho, poset.contexts[cid]).weights for cid in poset.ids()}
    return check_weight_family(family, poset)


def poset_to_json_str(poset: ContextPoset) -> str:
    return json.dumps(poset.to_json(), sort_keys=True)
