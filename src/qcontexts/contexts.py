"""Contexts and the finite context poset.

A context is a commutative operator algebra identified, in finite dimension,
with its atomic partition of the identity. The poset of contexts under the
subalgebra order is the base category everything else in this package is
built over, together with the spectral presheaf (one multiplicative
functional per atom) and the state presheaf (per-atom weights).
"""

from __future__ import annotations

import struct
from fractions import Fraction
from itertools import combinations

from .linalg import (
    DensityMatrix,
    HermitianOperator,
    Projector,
    ValidationError,
    _json_operator,
    born_probability,  # perfbench/tracer.py wraps it here too
)
from .records import Record
from .scalars import QSqrt2, integer_pairs

# CPython's built-in sha256 (``_sha2`` from 3.12 on) gives hashlib's digest
# without loading OpenSSL's ``_hashlib``, a few milliseconds of every start.
try:
    from _sha256 import sha256 as _sha256
except ImportError:
    try:
        from _sha2 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

# Every poset holds the trivial context's dim x dim identity, so time
# and memory grow as dim^2.
DIM_BOUND = 32


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
        h = _sha256()
        for a in self.atoms:
            h.update(a.key_bytes)
        self.id = h.hexdigest()[:16]

    @classmethod
    def trivial(cls, dim: int, backend: str = "float"):
        return cls([Projector.identity(dim, backend)], validate=False)

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    def __eq__(self, other):
        return isinstance(other, Context) and self.id == other.id

    def __hash__(self):
        return hash(self.id)

    def __repr__(self):
        return f"Context(dim={self.dim}, atoms={self.n_atoms}, id={self.id!r})"


class SpectralFunctional(Record):
    """The multiplicative functional picking out one atom of a context."""

    __slots__ = ("context_id", "index")

    def __init__(self, context_id: str, index: int):
        object.__setattr__(self, "context_id", context_id)
        object.__setattr__(self, "index", index)


class StateOnContext(Record):
    """A state on a context: non-negative per-atom weights summing to 1,
    exactly in Q(sqrt 2) when every weight is exact (QSqrt2, Fraction or
    int), within 1e-6 otherwise."""

    __slots__ = ("context_id", "weights")

    def __init__(self, context_id: str, weights: tuple):
        if any(w < 0 for w in weights):
            raise ValidationError("state weight is negative")
        if all(isinstance(w, (QSqrt2, Fraction, int)) for w in weights):
            one = sum(weights, QSqrt2(0)) == 1
        else:
            one = abs(sum(float(w) for w in weights) - 1.0) <= 1e-6
        if not one:
            raise ValidationError("state weights do not sum to 1")
        object.__setattr__(self, "context_id", context_id)
        object.__setattr__(self, "weights", weights)


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


# perfbench/tracer.py wraps it by name
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


def _overlap_groups(masks):
    """The atoms 0..n-1 of a first context, grouped by the components of
    the overlap graph they form with the atoms of a second one: ``masks[i]``
    holds the second context's atoms that atom i is not orthogonal to, as
    bits in any one numbering. Atom i joins each group whose masks' OR meets
    its mask; those ORs are disjoint, so one pass finds the components.
    Each group is ascending; groups come in order of their first atom."""
    groups = []  # (the group's atoms as bits, the OR of their masks)
    for i, reach in enumerate(masks):
        group, apart = 1 << i, []
        for g, r in groups:
            if r & reach:
                group |= g
                reach |= r
            else:
                apart.append((g, r))
        groups = apart + [(group, reach)]
    return sorted(list(_bits(g)) for g, _ in groups)


def _block_atom(atoms, block) -> Projector:
    """The sum of the given atoms (indices into ``atoms``, in that order)."""
    if len(block) == 1:
        return atoms[block[0]]
    m = atoms[block[0]].matrix
    for i in block[1:]:
        m = m + atoms[i].matrix
    return Projector(m, validate=False)


# perfbench/tracer.py wraps it by name
def meet(v1: Context, v2: Context) -> Context:
    """Largest context below both: merge atoms along the overlap graph."""
    if v1.dim != v2.dim:
        raise ValidationError("dimension mismatch")
    a1, a2 = v1.atoms, v2.atoms
    groups = _overlap_groups([sum(1 << j for j, b in enumerate(a2) if not a.orthogonal_to(b))
                              for a in a1])
    if len(groups) == len(a1):
        return v1
    if len(groups) == 1:
        return Context.trivial(v1.dim, v1.backend)
    return Context([_block_atom(a1, g) for g in groups], validate=False)


# Bell(8) = 4,140 coarsenings of one 8-atom context would put some 17M
# context pairs into the order pass; coarse.LATTICE_ATOM_BOUND is the
# matching bound on lattice materialization.
COARSENING_ATOM_BOUND = 7


def _check_coarsening_bound(v: Context) -> None:
    if v.n_atoms > COARSENING_ATOM_BOUND:
        raise ValidationError(
            f"context has {v.n_atoms} atoms; coarsenings are enumerated up to "
            f"{COARSENING_ATOM_BOUND}"
        )


# perfbench/tracer.py wraps it by name
def all_coarsenings(v: Context):
    """Every context coarser than v (all merges of its atoms), incl. v itself."""
    _check_coarsening_bound(v)
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

    __slots__ = ("dim", "backend", "contexts", "leq", "down", "restriction", "bottom_id",
                 "_proper_pairs")

    def __init__(self, contexts: dict, leq, down, restriction, bottom_id):
        self.contexts = contexts
        some = next(iter(contexts.values()))
        self.dim = some.dim
        self.backend = some.backend
        self.leq = leq
        self._proper_pairs = tuple((a, b) for (a, b) in sorted(leq) if a != b)
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

    def proper_pairs(self) -> tuple:
        """All (sub, sup) pairs with sub strictly below sup, sorted."""
        return self._proper_pairs

    def maximal_ids(self):
        covered = {sub for sub, _ in self._proper_pairs}
        return [cid for cid in self.ids() if cid not in covered]

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
        if not 1 <= dim <= DIM_BOUND:
            raise ValidationError(f"dim must be an integer in [1, {DIM_BOUND}], got {dim!r}")
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
        return build_poset(gens, close_under_meet=False, dim=dim)


def build_poset(generators, close_under_meet: bool = False, dim: int | None = None,
                backend: str = "float", coarsenings: bool = False,
                table: "_AtomTable | None" = None) -> ContextPoset:
    """Assemble a poset from generator contexts.

    Deduplicates (a later generator with a given id replaces an earlier one,
    and the trivial context replaces any generator equal to it), always adds
    the trivial context, optionally closes under pairwise meets, then
    computes the full order relation and the restriction maps. With
    ``coarsenings`` the generators are replaced by every coarsening of each
    (the contexts of ``all_coarsenings``), and a generator with more than
    ``COARSENING_ATOM_BOUND`` atoms is refused before any is built. Every
    one of these decisions is read from one ``_AtomTable``, a new one or a
    copy of ``table``, whose relations are then not decided again. The
    trivial context's identity is the sum of any other context's atoms, so
    it is interned as that block sum; only a build with no other context
    traces it.
    """
    if generators:
        dim = generators[0].dim
        backend = generators[0].backend
    elif dim is None:
        raise ValidationError("empty generator list; pass dim")
    for g in generators:
        if g.dim != dim or g.backend != backend:
            raise ValidationError("generators disagree on dim or backend")
    table = _AtomTable() if table is None else table.copy()
    if coarsenings:
        for g in generators:
            _check_coarsening_bound(g)
        contexts, rows = _coarsenings(generators, table)
    else:
        contexts = {g.id: g for g in generators}
        rows = {}
    triv = Context.trivial(dim, backend)
    contexts[triv.id] = triv
    for cid, v in contexts.items():
        if cid not in rows and cid != triv.id:
            rows[cid] = table.row(v)
    if triv.id not in rows:
        whole = next(iter(rows.values()), None)
        if whole is None:
            rows[triv.id] = table.row(triv)
        else:
            _, i = table.intern_sum(_mask(whole), 0, lambda: triv.atoms[0])
            rows[triv.id] = (i,)
    if close_under_meet:
        _close_under_meet(contexts, rows, table)
    return _ordered_poset(contexts, rows, table, triv.id)


class _AtomTable:
    """The distinct atoms of one poset build, or of one ray set, and their
    pairwise relations.

    Atoms are interned by canonical key and their relations kept as int
    bitmasks over atom indices: ``above[i]`` holds the atoms >= atom i,
    ``overlap[i]`` the atoms not orthogonal to atom i. Each atom is in both
    of its own masks by definition, not by a test with a tolerance. A
    context is then the tuple of its atoms' indices, in its own atom order
    (its "row"). The table is the build's only cache of atoms.

    ``intern`` decides a new atom's relations to every earlier atom once per
    pair, with ``Projector.orthogonal_to`` and at most one
    ``Projector.leq``. ``intern_sum`` finds an exact sum of atoms of an
    interned context by its parts' bits, and derives its relations from
    them when it is new, with no trace (see there). Both hand the new
    atom's masks to ``_add``, the one writer of relation bits.
    """

    __slots__ = ("index", "atoms", "above", "overlap")

    def __init__(self):
        self.index = {}
        self.atoms = []
        self.above = []
        self.overlap = []

    def copy(self) -> "_AtomTable":
        t = _AtomTable()
        t.index, t.atoms = dict(self.index), list(self.atoms)
        t.above, t.overlap = list(self.above), list(self.overlap)
        return t

    def _add(self, p: Projector, above: int, below: int, overlap: int) -> int:
        """Append p, under the atoms of mask ``above``, over those of
        ``below`` and overlapping those of ``overlap``; set their bits too."""
        i = len(self.atoms)
        bit = 1 << i
        self.index[p.canonical_key] = i
        self.atoms.append(p)
        self.above.append(above | bit)
        self.overlap.append(overlap | bit)
        for j in _bits(overlap):
            self.overlap[j] |= bit
            if below >> j & 1:
                self.above[j] |= bit
        return i

    def intern(self, p: Projector) -> int:
        i = self.index.get(p.canonical_key)
        if i is not None:
            return i
        exact = p.backend == "exact"
        above = below = overlap = 0
        for j, q in enumerate(self.atoms):
            if p.orthogonal_to(q):
                continue
            overlap |= 1 << j
            # Distinct exact keys are distinct projectors, and of two
            # distinct projectors of equal rank neither lies under the
            # other. Float keys round at 1e-6 while leq allows 1e-8 on the
            # trace, so float atoms of equal rank are still tested.
            if exact and p.rank == q.rank:
                continue
            # P <= Q needs rank P <= rank Q, and at equal ranks P <= Q iff
            # Q <= P (both read tr(PQ) = rank): one order test decides both
            if p.rank <= q.rank:
                if p.leq(q):
                    above |= 1 << j
                    if p.rank == q.rank:
                        below |= 1 << j
            elif q.leq(p):
                below |= 1 << j
        return self._add(p, above, below, overlap)

    def intern_sum(self, block: int, rest: int, build) -> tuple:
        """The atom and index of S, the sum of the atoms in mask ``block`` of
        an interned context whose other atoms are the mask ``rest``.
        ``build()`` makes S as a ``Projector``.

        For an exact S each tr(PᵢX) is >= 0, so S overlaps X iff some part
        does; S <= X iff every part is; and X <= S iff X is orthogonal to
        I - S, the sum of ``rest``. So an interned X is S iff it lies above
        every part and overlaps no atom of ``rest``, and ``build`` runs only
        when no X does. A rounded float sum is not exactly the sum of its
        parts, so a float S is built and interned by its traces.
        """
        if self.atoms[block.bit_length() - 1].backend != "exact":
            p = build()
            return p, self.intern(p)
        above, overlap = -1, 0
        for b in _bits(block):
            above &= self.above[b]
            overlap |= self.overlap[b]
        for x in _bits(above):
            if not self.overlap[x] & rest:
                return self.atoms[x], x
        below = 0
        for j in _bits(overlap):
            if not self.overlap[j] & rest:
                below |= 1 << j
        p = build()
        return p, self._add(p, above, below, overlap)

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


def _block(table: _AtomTable, v: Context, row, block, whole: int) -> tuple:
    """The atom and table index of the sum of v's atoms at positions
    ``block``, where ``row`` is v's row and ``whole`` its mask."""
    if len(block) == 1:
        return v.atoms[block[0]], row[block[0]]
    bits = _mask(row[k] for k in block)
    return table.intern_sum(bits, whole & ~bits, lambda: _block_atom(v.atoms, block))


def _coarsenings(generators, table: _AtomTable):
    """Every coarsening of each generator, in ``all_coarsenings`` order, as
    contexts and rows keyed by id. As with generators, a later partition
    with the atoms of an earlier one replaces it, and a context is built
    once per distinct set of atoms.

    The generators' atoms are interned first, so each is traced against
    the other generators' atoms only; every block sum is then found or
    derived by ``_block``, with no trace, and built once per build.
    """
    latest = {}  # atom mask -> the atoms of the last partition with them
    for v, row in [(v, table.row(v)) for v in generators]:
        whole = _mask(row)
        for part in _set_partitions(list(range(v.n_atoms))):
            blocks = [_block(table, v, row, block, whole) for block in part]
            latest[_mask(i for _, i in blocks)] = [atom for atom, _ in blocks]
    contexts, rows = {}, {}
    for atoms in latest.values():
        c = Context(atoms, validate=False)
        contexts[c.id] = c
        rows[c.id] = table.row(c)
    return contexts, rows


def _close_under_meet(contexts: dict, rows: dict, table: _AtomTable) -> None:
    """Add pairwise meets to ``contexts`` and ``rows`` until none is new.

    One worklist: each context, new meets included as they are appended,
    is met with every earlier one, so each pair is visited once and the
    contexts are the ones a pairwise ``meet`` loop would add. A meet that
    merges nothing is its earlier argument, and one that merges everything
    is the trivial context: both are present already. Otherwise its atom
    mask is read from ``_block`` before any ``Context`` is made, so a
    known meet builds nothing.
    """
    items = list(contexts.values())
    masks = [_mask(rows[v.id]) for v in items]
    known = set(masks)
    for k, v2 in enumerate(items):
        m2 = masks[k]
        ov2 = [table.overlap[b] for b in rows[v2.id]]
        for i, v1 in enumerate(items[:k]):
            r1, m1 = rows[v1.id], masks[i]
            ov1 = [table.overlap[a] for a in r1]
            # an atom on each side overlapping every atom of the other
            # side connects the overlap graph: the meet is trivial
            if any(o & m2 == m2 for o in ov1) and any(o & m1 == m1 for o in ov2):
                continue
            groups = _overlap_groups([o & m2 for o in ov1])
            if len(groups) in (1, len(r1)):
                continue
            blocks = [_block(table, v1, r1, g, m1) for g in groups]
            mask = _mask(j for _, j in blocks)
            if mask not in known:
                m = Context([atom for atom, _ in blocks], validate=False)
                contexts[m.id] = m
                rows[m.id] = table.row(m)
                known.add(mask)
                items.append(m)
                masks.append(mask)


def _ordered_poset(contexts: dict, rows: dict, table: _AtomTable, bottom_id: str) -> ContextPoset:
    """The order relation and restriction maps, by table lookup.

    a <= b when every atom of b lies under an atom of a, and the restriction
    map sends atom i of b to the one atom of a above it (one at most, since
    a's atoms are mutually orthogonal). ``reach[i]`` holds the contexts, as
    bits over sorted ids, with an atom above atom i, so the contexts below
    b are the AND of ``reach`` over b's atoms. ``position[k]`` maps each
    atom under an atom of the k-th context to that atom's position in it.
    """
    ids = sorted(contexts)
    holding = [0] * len(table.atoms)
    for k, cid in enumerate(ids):
        for i in rows[cid]:
            holding[i] |= 1 << k
    reach = []
    under = [0] * len(table.atoms)
    for i, up in enumerate(table.above):
        m = 0
        for j in _bits(up):
            m |= holding[j]
            under[j] |= 1 << i
        reach.append(m)
    position = []
    for cid in ids:
        pos = {}
        for at, j in enumerate(rows[cid]):
            for i in _bits(under[j]):
                pos[i] = at
        position.append(pos.__getitem__)
    restriction = {}
    down = {}
    for b in ids:
        row = rows[b]
        below = (1 << len(ids)) - 1
        for i in row:
            below &= reach[i]
        down[b] = tuple(ids[k] for k in _bits(below))
        for k in _bits(below):
            restriction[(ids[k], b)] = tuple(map(position[k], row))
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

    Exact weights (QSqrt2, Fraction or int) are taken once per stage as
    integer pairs over one denominator (`integer_pairs`) and pushed forward
    as integers: a pushed total x over the upper stage's denominator
    equals a lower weight y over the lower one iff x * d_sub == y * d_sup,
    on the rational and the sqrt(2) parts. Float weights agree within 1e-7.
    """
    if poset.backend == "exact":
        ints = {cid: integer_pairs(w) for cid, w in weights.items()}
        for sub, sup in poset.proper_pairs():
            d_sup, a_sup, b_sup = ints[sup]
            d_sub, a_sub, b_sub = ints[sub]
            rmap = poset.restriction[(sub, sup)]
            for upper, lower in ((a_sup, a_sub), (b_sup, b_sub)):
                pushed = _pushforward(upper, rmap, len(lower))
                if any(x * d_sub != y * d_sup for x, y in zip(pushed, lower)):
                    return False
        return True
    for sub, sup in poset.proper_pairs():
        w_sub = weights[sub]
        pushed = _pushforward(map(float, weights[sup]), poset.restriction[(sub, sup)],
                              len(w_sub))
        if any(abs(p - float(w)) > 1e-7 for p, w in zip(pushed, w_sub)):
            return False
    return True


def _pushforward(values, rmap, n: int) -> list:
    """The totals of ``values`` over the n atoms ``rmap`` sends them to."""
    out = [0] * n
    for k, x in zip(rmap, values):
        out[k] += x
    return out
