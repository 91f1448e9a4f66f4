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
import struct
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .linalg import (
    DensityMatrix,
    HermitianOperator,
    Projector,
    ValidationError,
    _json_operator,
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
            h.update(a.key_bytes)
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
    """A state on a context: non-negative per-atom weights summing to 1,
    exactly in Q(sqrt 2) when every weight is exact (QSqrt2, Fraction or
    int), within 1e-6 otherwise."""

    context_id: str
    weights: tuple

    def __post_init__(self):
        if any(w < 0 for w in self.weights):
            raise ValidationError("state weight is negative")
        if all(isinstance(w, (QSqrt2, Fraction, int)) for w in self.weights):
            one = sum(self.weights, QSqrt2(0)) == 1
        else:
            one = abs(sum(float(w) for w in self.weights) - 1.0) <= 1e-6
        if not one:
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


def _overlap_groups(n1: int, n2: int, overlaps):
    """The atoms 0..n1-1 of a first context, grouped by the components of
    the overlap graph they form with the atoms 0..n2-1 of a second one
    (``overlaps(i, j)``: atom i of the first is not orthogonal to atom j of
    the second). Each group is ascending; groups come in order of their
    first atom."""
    parent = list(range(n1 + n2))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n1):
        for j in range(n2):
            if overlaps(i, j):
                rx, ry = find(i), find(n1 + j)
                if rx != ry:
                    parent[rx] = ry
    groups: dict[int, list[int]] = {}
    for i in range(n1):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _block_atom(atoms, block) -> Projector:
    """The sum of the given atoms (indices into ``atoms``, in that order)."""
    if len(block) == 1:
        return atoms[block[0]]
    m = atoms[block[0]].matrix
    for i in block[1:]:
        m = m + atoms[i].matrix
    return Projector(m, validate=False)


def meet(v1: Context, v2: Context) -> Context:
    """Largest context below both: merge atoms along the overlap graph."""
    if v1.dim != v2.dim:
        raise ValidationError("dimension mismatch")
    a1, a2 = v1.atoms, v2.atoms
    groups = _overlap_groups(len(a1), len(a2), lambda i, j: not a1[i].orthogonal_to(a2[j]))
    if len(groups) == len(a1):
        return v1
    if len(groups) == 1:
        return Context.trivial(v1.dim, v1.backend)
    return Context([_block_atom(a1, g) for g in groups], validate=False)


# Bell(8) = 4,140 coarsenings of one 8-atom context would put some 17M
# context pairs into the order pass; coarse.LATTICE_ATOM_BOUND is the
# matching bound on lattice materialization.
COARSENING_ATOM_BOUND = 7


def all_coarsenings(v: Context):
    """Every context coarser than v (all merges of its atoms), incl. v itself."""
    if v.n_atoms > COARSENING_ATOM_BOUND:
        raise ValidationError(
            f"context has {v.n_atoms} atoms; coarsenings are enumerated up to "
            f"{COARSENING_ATOM_BOUND}"
        )
    return [
        Context([_block_atom(v.atoms, block) for block in part], validate=False)
        for part in _set_partitions(list(range(v.n_atoms)))
    ]


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
        if not isinstance(obj, dict):
            raise ValidationError("poset JSON must be an object")
        dim = obj.get("dim")
        if isinstance(dim, bool) or not isinstance(dim, int):
            raise ValidationError("poset JSON needs an integer dim")
        if not isinstance(obj.get("contexts"), list):
            raise ValidationError("poset JSON needs a contexts array")
        gens = []
        built = {}  # bit-exact float data -> projector, so -0.0 is not 0.0
        for c in obj["contexts"]:
            if not (isinstance(c, dict) and isinstance(c.get("atoms"), list)):
                raise ValidationError("each poset context needs an atoms array")
            atoms = []
            for a in c["atoms"]:
                op_dim, data = _json_operator(a)
                key = struct.pack(f"{len(data)}d", *data)
                if key not in built:
                    built[key] = Projector.from_matrix(HermitianOperator(op_dim, data, "float"))
                atoms.append(built[key])
            if atoms and atoms[0].dim != dim:
                raise ValidationError("context dimension disagrees with poset dimension")
            gens.append(Context(atoms))
        return build_poset(gens, close_under_meet=False)


def build_poset(generators, close_under_meet: bool = False, dim: int | None = None,
                backend: str = "float") -> ContextPoset:
    """Assemble a poset from generator contexts.

    Deduplicates (a later generator with a given id replaces an earlier one,
    and the trivial context replaces any generator equal to it), always adds
    the trivial context, optionally closes under pairwise meets to a fixed
    point, then computes the full order relation and the restriction maps.
    Every one of these decisions is read from one ``_AtomTable``.
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
    table = _AtomTable()
    rows = {cid: table.row(v) for cid, v in contexts.items()}
    if close_under_meet:
        _close_under_meet(contexts, rows, table)
    return _ordered_poset(contexts, rows, table, triv.id)


class _AtomTable:
    """The distinct atoms of one poset build and their pairwise relations.

    Atoms are interned by canonical key. A new atom's relations to every
    atom seen so far are decided once per pair, with ``Projector.orthogonal_to``
    and at most one ``Projector.leq``, and kept as int bitmasks over atom
    indices: ``above[i]`` holds the atoms >= atom i, ``overlap[i]`` the
    atoms not orthogonal to atom i. A context is then the tuple of its
    atoms' indices, in its own atom order (its "row").
    """

    __slots__ = ("index", "atoms", "above", "overlap")

    def __init__(self):
        self.index = {}
        self.atoms = []
        self.above = []
        self.overlap = []

    def intern(self, p: Projector) -> int:
        i = self.index.get(p.canonical_key)
        if i is not None:
            return i
        i = len(self.atoms)
        self.index[p.canonical_key] = i
        self.atoms.append(p)
        self.above.append(0)
        self.overlap.append(0)
        for j, q in enumerate(self.atoms):
            if p.orthogonal_to(q):
                continue
            self.overlap[i] |= 1 << j
            self.overlap[j] |= 1 << i
            # P <= Q needs rank P <= rank Q, and at equal ranks P <= Q iff
            # Q <= P (both read tr(PQ) = rank): one order test decides both
            lo, hi = (i, j) if p.rank <= q.rank else (j, i)
            if self.atoms[lo].leq(self.atoms[hi]):
                self.above[lo] |= 1 << hi
                if p.rank == q.rank:
                    self.above[hi] |= 1 << lo
        return i

    def row(self, v: Context) -> tuple:
        return tuple(self.intern(a) for a in v.atoms)


def _mask(row) -> int:
    return sum(1 << i for i in row)


def _bits(mask: int):
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _close_under_meet(contexts: dict, rows: dict, table: _AtomTable) -> None:
    """Add pairwise meets to ``contexts`` and ``rows`` until none is new.

    Rounds visit the pairs of contexts in insertion order, each pair once,
    and a new meet is added as first found; so the contexts are the ones a
    pairwise ``meet`` loop would add. A meet that merges nothing is its
    first argument, and one that merges everything is the trivial context:
    both are present already. The sum of a merged set of atoms is built
    once per set and interned by its key, since two sets can span the same
    subspace.
    """
    known = {_mask(row) for row in rows.values()}
    merged = {}
    items = list(contexts.values())
    done = 0
    while True:
        added = {}
        for i, v1 in enumerate(items):
            r1 = rows[v1.id]
            ov = [table.overlap[a] for a in r1]
            m1 = _mask(r1)
            for v2 in items[max(i + 1, done):]:
                r2 = rows[v2.id]
                m2 = _mask(r2)
                # an atom on each side overlapping every atom of the other
                # side connects the overlap graph: the meet is trivial
                if any(o & m2 == m2 for o in ov) and any(table.overlap[b] & m1 == m1 for b in r2):
                    continue
                groups = _overlap_groups(len(r1), len(r2), lambda x, y: ov[x] >> r2[y] & 1)
                if len(groups) in (1, len(r1)):
                    continue
                atoms, mask = [], 0
                for g in groups:
                    if len(g) == 1:
                        atom, idx = v1.atoms[g[0]], r1[g[0]]
                    else:
                        key = _mask(r1[x] for x in g)
                        if key not in merged:
                            atom = _block_atom(v1.atoms, g)
                            merged[key] = atom, table.intern(atom)
                        atom, idx = merged[key]
                    atoms.append(atom)
                    mask |= 1 << idx
                if mask not in known and mask not in added:
                    added[mask] = Context(atoms, validate=False)
        done = len(items)
        if not added:
            return
        for mask, m in added.items():
            contexts[m.id] = m
            rows[m.id] = table.row(m)
            known.add(mask)
            items.append(m)


def _ordered_poset(contexts: dict, rows: dict, table: _AtomTable, bottom_id: str) -> ContextPoset:
    """The order relation and restriction maps, by table lookup.

    a <= b when every atom of b lies under an atom of a, and the restriction
    map sends atom i of b to the one atom of a in ``above[i]`` (one at most,
    since a's atoms are mutually orthogonal). ``reach[i]`` holds the
    contexts, as bits over sorted ids, with an atom above atom i, so the
    contexts below b are the AND of ``reach`` over b's atoms.
    """
    ids = sorted(contexts)
    masks = [_mask(rows[cid]) for cid in ids]
    holding = [0] * len(table.atoms)
    for k, cid in enumerate(ids):
        for i in rows[cid]:
            holding[i] |= 1 << k
    reach = []
    for up in table.above:
        m = 0
        for j in _bits(up):
            m |= holding[j]
        reach.append(m)
    restriction = {}
    down = {}
    for b in ids:
        below = (1 << len(ids)) - 1
        for i in rows[b]:
            below &= reach[i]
        down[b] = tuple(ids[k] for k in _bits(below))
        for k in _bits(below):
            row = rows[ids[k]]
            restriction[(ids[k], b)] = tuple(
                row.index(next(_bits(table.above[i] & masks[k]))) for i in rows[b])
    restriction = dict(sorted(restriction.items()))
    return ContextPoset(contexts, frozenset(restriction), down, restriction, bottom_id)


# ---------------------------------------------------------------------------
# the state presheaf
# ---------------------------------------------------------------------------


def restrict_state(rho: DensityMatrix, v: Context) -> StateOnContext:
    """Per-atom Born weights of a density matrix on a context."""
    if rho.dim != v.dim:
        raise ValidationError("dimension mismatch")
    return StateOnContext(v.id, tuple(born_probability(rho, a) for a in v.atoms))


def check_state_global_element(weights: dict, poset: ContextPoset) -> bool:
    """Whether per-stage atom weights (context id -> tuple, as a state's
    `restrict_state` weights) are a global element of the state presheaf:
    they push forward consistently along every pair.

    Exact weights are summed in Q(sqrt 2) and compared with ``==``; float
    weights agree within 1e-7.
    """
    exact = poset.backend == "exact"
    for sub, sup in poset.proper_pairs():
        w_sup = weights[sup]
        w_sub = weights[sub]
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


def poset_to_json_str(poset: ContextPoset) -> str:
    return json.dumps(poset.to_json(), sort_keys=True)
