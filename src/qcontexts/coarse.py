"""Projector lattices and the coarse-graining presheaf.

The lattice of a context is the Boolean algebra of atom subsets, stored as
bitmasks. Coarse-graining moves a projector down to a smaller context as the
least dominating element there; the closed form (sum of non-orthogonal
atoms) is used in production with the brute-force infimum kept as an oracle.
"""

from __future__ import annotations

from .contexts import Context, ContextPoset, SpectralFunctional
from .linalg import Projector, ValidationError
from .records import Record

LATTICE_ATOM_BOUND = 20


class LatticeElement(Record):
    """A projector in a context's lattice: the bitmask of its atoms."""

    __slots__ = ("context_id", "mask")

    def __init__(self, context_id: str, mask: int):
        object.__setattr__(self, "context_id", context_id)
        object.__setattr__(self, "mask", mask)


def element_projector(elem: LatticeElement, v: Context) -> Projector:
    """The concrete projector represented by a lattice element."""
    if v.id != elem.context_id:
        raise ValidationError("element does not belong to this context")
    m = None
    for i, atom in enumerate(v.atoms):
        if elem.mask >> i & 1:
            m = atom.matrix if m is None else m + atom.matrix
    if m is None:
        return Projector.zero(v.dim, v.backend)
    return Projector(m, validate=False)


def lattice_size(v: Context) -> int:
    """The number 2^k of lattice elements of a context of k atoms; raises
    above the materialization bound."""
    if v.n_atoms > LATTICE_ATOM_BOUND:
        raise ValidationError(
            f"context has {v.n_atoms} atoms; lattice materialization is capped at "
            f"{LATTICE_ATOM_BOUND}"
        )
    return 1 << v.n_atoms


def lattice(v: Context):
    """All 2^k lattice elements of a context, bottom first, top last."""
    return [LatticeElement(v.id, m) for m in range(lattice_size(v))]


def lattice_covers(n_atoms: int):
    """Every covering pair (p, p | 1 << i) of the lattice of n atoms, p
    ascending, then i. An order law that holds on covers holds on all
    pairs, by transitivity."""
    for p in range(1 << n_atoms):
        for i in range(n_atoms):
            if not p >> i & 1:
                yield p, p | 1 << i


def top(v: Context) -> LatticeElement:
    return LatticeElement(v.id, (1 << v.n_atoms) - 1)


def coarse_grain(poset: ContextPoset, elem: LatticeElement, target_id: str) -> LatticeElement:
    """Least element of the target lattice dominating the given projector.

    Closed form: the target atoms not orthogonal to the projector are exactly
    the images of its atoms under the restriction map.
    """
    src = elem.context_id
    if not poset.is_leq(target_id, src):
        raise ValidationError("target is not a subalgebra of the element's context")
    return LatticeElement(target_id, image_mask(poset.restriction[(target_id, src)], elem.mask))


def image_mask(rmap, mask: int) -> int:
    """The atoms that the masked atoms restrict into under an atom map."""
    out = 0
    i = 0
    while mask:
        if mask & 1:
            out |= 1 << rmap[i]
        mask >>= 1
        i += 1
    return out


def image_masks(rmap, size: int) -> list:
    """``image_mask(rmap, m)`` for every mask m of ``size`` atoms, indexed by
    m. Coarse-graining preserves joins, so a mask's image is the image of
    the mask without its lowest atom, joined with that atom's image."""
    img = [0] * (1 << size)
    for m in range(1, 1 << size):
        low = m & -m
        img[m] = img[m ^ low] | 1 << rmap[low.bit_length() - 1]
    return img


def image_arrays(maps: dict, built: dict) -> dict:
    """The `image_masks` array of every atom map in ``maps`` ((sub, sup) ->
    map), by pair. Many pairs share a map, so each distinct map's array is
    built once and kept in ``built`` (map -> array); a map has one entry per
    atom of sup, so the map alone fixes the array's size."""
    out = {}
    for pair, rmap in maps.items():
        img = built.get(rmap)
        if img is None:
            img = built[rmap] = image_masks(rmap, len(rmap))
        out[pair] = img
    return out


def projector_restrictions(poset: ContextPoset) -> dict:
    """The atom map of every proper pair, recomputed from the projector
    order instead of read from ``poset.restriction``: the route by which
    the checks of naturality and of the clopen action test those tables.
    A command computes it once and passes it to both.

    Each distinct pair of atoms, by canonical key, is decided once."""
    under = {}  # (key_bytes of a, key_bytes of b) -> a <= b
    out = {}
    for sub, sup in poset.proper_pairs():
        lower = poset.contexts[sub].atoms
        rmap = []
        for a in poset.contexts[sup].atoms:
            for j, b in enumerate(lower):
                pair = a.key_bytes, b.key_bytes
                if pair not in under:
                    under[pair] = a.leq(b)
                if under[pair]:
                    rmap.append(j)
                    break
            else:
                raise ValidationError(f"context {sub} is not below {sup} in the projector order")
        out[(sub, sup)] = tuple(rmap)
    return out


def coarse_grain_bruteforce(poset: ContextPoset, elem: LatticeElement, target_id: str) -> LatticeElement:
    """Oracle: infimum over the target lattice using only the matrix order."""
    src_ctx = poset.contexts[elem.context_id]
    tgt_ctx = poset.contexts[target_id]
    if not poset.is_leq(target_id, elem.context_id):
        raise ValidationError("target is not a subalgebra of the element's context")
    p = element_projector(elem, src_ctx)
    dominating = []
    for mask in range(1 << tgt_ctx.n_atoms):
        q = element_projector(LatticeElement(target_id, mask), tgt_ctx)
        if p.leq(q):
            dominating.append(mask)
    inf_mask = (1 << tgt_ctx.n_atoms) - 1
    for mask in dominating:
        inf_mask &= mask
    if inf_mask not in dominating:
        raise AssertionError("infimum of dominating elements does not dominate")
    return LatticeElement(target_id, inf_mask)


def coarse_functoriality_check(poset: ContextPoset) -> dict:
    """Two-step coarse-graining equals one-step, on every chain and element.
    Coarse-graining preserves joins, so atoms decide; the masks below 1 << i
    hold only lower atoms, so the lowest failing atom is the first failing
    element in lattice order."""
    pairs = poset.proper_pairs()
    above: dict = {}  # context id -> the ids strictly above it, sorted
    for sub, sup in pairs:
        above.setdefault(sub, []).append(sup)
    chains = 0
    for v3, v2 in pairs:
        r32 = poset.restriction[(v3, v2)]
        for v1 in above.get(v2, ()):
            chains += 1
            r31 = poset.restriction[(v3, v1)]
            for i, j in enumerate(poset.restriction[(v2, v1)]):
                if r31[i] != r32[j]:
                    return {
                        "ok": False,
                        "chains_checked": chains,
                        "counterexample": {
                            "chain": [v3, v2, v1],
                            "mask": 1 << i,
                            "direct": 1 << r31[i],
                            "stepped": 1 << r32[j],
                        },
                    }
    return {"ok": True, "chains_checked": chains, "counterexample": None}


# ---------------------------------------------------------------------------
# clopen subsets of the spectrum
# ---------------------------------------------------------------------------


def clopen_of(elem: LatticeElement, v: Context):
    """The functionals valuing the element at 1: exactly its masked atoms."""
    return frozenset(
        SpectralFunctional(v.id, i) for i in range(v.n_atoms) if elem.mask >> i & 1
    )


def clopen_iso_check(poset: ContextPoset, maps: dict) -> dict:
    """Verify that the clopen-set morphism action commutes with
    coarse-graining. A lattice element's clopen set is the set of its masked
    atoms (`clopen_of`), so the stagewise bijection holds by construction and
    is not checked. The action sends each functional to the atom above its
    own in the projector order, read from ``maps`` (`projector_restrictions`),
    so this tests the poset's restriction tables against the matrices. Both
    routes preserve joins, so atoms decide; the masks below 1 << i hold only
    lower atoms, so the lowest differing atom is the first differing
    element in lattice order."""
    pairs = poset.proper_pairs()
    for sub, sup in pairs:
        coarse_map, action_map = poset.restriction[(sub, sup)], maps[(sub, sup)]
        i = next((i for i, (c, a) in enumerate(zip(coarse_map, action_map)) if c != a), None)
        if i is not None:
            return {
                "ok": False,
                "counterexample": {
                    "morphism": [sub, sup],
                    "mask": 1 << i,
                    "coarse_route": [coarse_map[i]],
                    "action_route": [action_map[i]],
                },
            }
    return {"ok": True, "stages_checked": len(poset),
            "morphisms_checked": len(pairs), "counterexample": None}
