"""Interval-valued valuations.

Assignments of spectrum subsets to stages: the true-subobject of the
spectral presheaf arising from a state, global elements of the
coarse-graining presheaf read off sieve-valued valuations,
probability-threshold projector families with their subobject and semantic
checks, and ideal-induced valuations from a vector.
"""

from __future__ import annotations

from math import sqrt
from operator import mul

from .coarse import LatticeElement, image_mask, lattice_covers, top
from .contexts import Context, ContextPoset, _bits
from .linalg import ValidationError, _scaled_float_ray, _zi_apply, _zi_ints, get_eps
from .records import Record
from .scalars import exact_entry, integer_pairs, sign_sqrt2
from .valuations import PresheafTables, ValuationTable, _first_disjoint_pair
from .valuations import stage_weights  # noqa: F401  perfbench/tracer.py wraps it here too


class IntervalAssignment(Record):
    """Per-stage subsets of the spectrum, stored as atom masks."""

    __slots__ = ("sets",)

    def __init__(self, sets: dict):
        object.__setattr__(self, "sets", sets)  # context id -> atom mask

    def to_json(self) -> dict:
        return {cid: list(_bits(s)) for cid, s in sorted(self.sets.items())}


class ProjectorFamily(Record):
    """Per-stage subsets of the projector lattice, stored as bitmask sets."""

    __slots__ = ("masks",)

    def __init__(self, masks: dict):
        object.__setattr__(self, "masks", masks)  # context id -> frozenset[int]


class CoarseGlobalElement(Record):
    """One lattice element per stage, compatible with coarse-graining."""

    __slots__ = ("choices",)

    def __init__(self, choices: dict):
        object.__setattr__(self, "choices", choices)  # context id -> mask

    def to_json(self) -> dict:
        return dict(sorted(self.choices.items()))


# ---------------------------------------------------------------------------
# supports and true-set infima
# ---------------------------------------------------------------------------


def support(weights, v: Context) -> LatticeElement:
    """The least projector in the context's lattice with full Born weight:
    the sum of atoms carrying positive weight, given the context's atom
    weights (`restrict_state`, or one stage of `PresheafTables.weights`).
    Exact weights (QSqrt2, Fraction or int) are taken as integer pairs
    (a, b) over one denominator (`integer_pairs`), and an atom is in the
    support when ``sign_sqrt2(a, b) > 0``; a float weight must exceed eps."""
    if v.backend == "exact":
        _, a, b = integer_pairs(weights)
        weights, threshold = map(sign_sqrt2, a, b), 0
    else:
        threshold = get_eps()
    mask = 0
    for i, w in enumerate(weights):
        if w > threshold:
            mask |= 1 << i
    return LatticeElement(v.id, mask)


def true_subobject(tables: PresheafTables) -> IntervalAssignment:
    """Per stage, the functionals dominated by the support; never empty."""
    contexts = tables.poset.contexts
    return IntervalAssignment({cid: support(tables.weights[cid], contexts[cid]).mask
                               for cid in tables.poset.ids()})


def _true_set_infimum(table: ValuationTable, cid: str) -> int:
    """Mask of the meet of the stage's true-set; 0 when the true-set is empty."""
    true_v = table.down[cid]
    inf_mask = -1  # all bits set: the meet of no elements
    for m, s in enumerate(table.maps[cid]):
        if s == true_v:
            inf_mask &= m
    return max(inf_mask, 0)


# ---------------------------------------------------------------------------
# subobject checks on the spectral presheaf
# ---------------------------------------------------------------------------


def check_spectral_subobject(assignment: IntervalAssignment, poset: ContextPoset) -> dict:
    """Per morphism, whether the restricted stage-set lands inside (weak) or
    exactly onto (strong) the lower stage-set. The overall subobject verdict
    is the weak condition everywhere."""
    morphisms = []
    weak_ok = True
    for sub, sup in poset.proper_pairs():
        image = image_mask(poset.restriction[(sub, sup)], assignment.sets[sup])
        target = assignment.sets[sub]
        weak = not image & ~target
        strong = image == target
        weak_ok = weak_ok and weak
        morphisms.append(
            {"morphism": [sub, sup], "weak": weak, "strong": strong,
             "image": list(_bits(image)), "target": list(_bits(target))}
        )
    return {"ok": weak_ok, "morphisms": morphisms}


# ---------------------------------------------------------------------------
# global elements of the coarse-graining presheaf
# ---------------------------------------------------------------------------


def global_element_from_valuation(table: ValuationTable, poset: ContextPoset):
    """Per-stage infima of true-sets, validated against the matching law.

    Returns (CoarseGlobalElement, report) on success and (None, report) with
    the first violating morphism otherwise.
    """
    choices = {cid: _true_set_infimum(table, cid) for cid in poset.ids()}
    for sub, sup in poset.proper_pairs():
        expected = image_mask(poset.restriction[(sub, sup)], choices[sup])
        if choices[sub] != expected:
            return None, {
                "ok": False,
                "violating_morphism": [sub, sup],
                "infimum_above": choices[sup],
                "infimum_below": choices[sub],
                "coarse_grained_above": expected,
            }
    return CoarseGlobalElement(choices), {"ok": True, "violating_morphism": None}


def interval_from_global_element(gamma: CoarseGlobalElement, poset: ContextPoset) -> IntervalAssignment:
    """The spectrum subsets picked out by a global element's projectors."""
    return IntervalAssignment(dict(gamma.choices))


# ---------------------------------------------------------------------------
# probability-threshold projector families
# ---------------------------------------------------------------------------


def probability_family(tables: PresheafTables) -> ProjectorFamily:
    """Per stage, the lattice elements with Born weight at least r.

    The family is a subobject of the coarse-graining presheaf whose image
    under every coarse-graining equals the lower stage's family, for every r
    in (0, 1]; see `check_coarse_subobject`.
    """
    return ProjectorFamily({cid: frozenset(q for q, ok in enumerate(truth) if ok)
                            for cid, truth in tables.truth.items()})


def check_coarse_subobject(family: ProjectorFamily, tables: PresheafTables) -> dict:
    """Image containment (the subobject condition) per morphism, and
    separately whether the image equals the lower stage's set.

    For a `probability_family` both hold for every r in (0, 1]: containment
    because coarse-graining never lowers Born weight, and equality because
    each lower-stage mask has a preimage mask (the union of the fine atoms
    restricting into it) of the same weight that coarse-grains back to it.
    On the exact backend this is exact. On the float backend each stage's
    atom weights are independent traces that agree only to rounding and are
    compared with `eps` slack, so only a weight within rounding of r - eps
    could put a mask in one stage's family but not in the other's.
    """
    morphisms = []
    containment_ok = True
    equality_ok = True
    for sub, sup in tables.poset.proper_pairs():
        img = tables.images[(sub, sup)]
        image = frozenset(img[m] for m in family.masks[sup])
        target = family.masks[sub]
        containment = image <= target
        equality = image == target
        containment_ok = containment_ok and containment
        equality_ok = equality_ok and equality
        morphisms.append(
            {"morphism": [sub, sup], "containment": containment, "equality": equality}
        )
    return {"ok": containment_ok, "equality": equality_ok, "morphisms": morphisms}


def check_semantic_subobject(family: ProjectorFamily, sub_report: dict, poset: ContextPoset,
                             require_exclusivity: bool = True) -> dict:
    """The four semantic-subobject properties: image containment (read from
    ``sub_report``, the family's `check_coarse_subobject` report), no null
    element, upper-set, and (optionally) no disjoint pair."""
    report = {}
    report["functional_composition"] = {
        "ok": sub_report["ok"],
        "counterexample": None if sub_report["ok"] else next(
            m["morphism"] for m in sub_report["morphisms"] if not m["containment"]
        ),
    }
    null_ok = all(0 not in family.masks[cid] for cid in poset.ids())
    report["null_proposition"] = {
        "ok": null_ok,
        "counterexample": None if null_ok else next(
            cid for cid in poset.ids() if 0 in family.masks[cid]
        ),
    }
    upper = {"ok": True, "counterexample": None}
    for cid in poset.ids():
        ms = family.masks[cid]
        cover = next(((p, q) for p, q in lattice_covers(poset.contexts[cid].n_atoms)
                      if p in ms and q not in ms), None)
        if cover is not None:
            upper = {"ok": False, "counterexample": {"stage": cid, "p": cover[0], "q": cover[1]}}
            break
    report["monotonicity"] = upper
    excl = {"ok": True, "counterexample": None, "checked": require_exclusivity}
    if require_exclusivity:
        for cid in poset.ids():
            pair = _first_disjoint_pair(family.masks[cid])
            if pair is not None:
                excl = {"ok": False, "checked": True,
                        "counterexample": {"stage": cid, "p": pair[0], "q": pair[1]}}
                break
    report["exclusivity"] = excl
    report["ok"] = all(prop["ok"] for prop in report.values())
    return report


# ---------------------------------------------------------------------------
# ideal-induced valuations
# ---------------------------------------------------------------------------


def ideal_valuation(psi, poset: ContextPoset) -> IntervalAssignment:
    """Interval assignment from the annihilator ideal of a nonzero vector.

    Per stage, the largest projector annihilating the vector is the sum of
    the annihilating atoms; the assigned functionals are the rest. The
    ideal of a ray does not depend on the vector's scale.
    """
    sets = {}
    for cid in poset.ids():
        ctx = poset.contexts[cid]
        sets[cid] = top(ctx).mask & ~largest_annihilating_mask(psi, ctx)
    return IntervalAssignment(sets)


def largest_annihilating_mask(psi, v: Context) -> int:
    """Bitmask of atoms annihilating the nonzero vector (the ideal's top
    projector). Float vectors are normalized before the ``sqrt(eps)`` test,
    after division by their largest part, so that no scale is too small or
    too large."""
    if len(psi) != v.dim:
        raise ValidationError("vector length does not match the dimension")
    if v.backend == "float":
        ray = _scaled_float_ray(psi)
        if ray is None:
            raise ValidationError("zero vector")
        re, im, n = ray
        norm = sqrt(n)
        re = [x / norm for x in re]
        im = [y / norm for y in im]
        mask = 0
        for i, atom in enumerate(v.atoms):
            if _float_image_norm(atom.matrix.data, re, im, v.dim) <= sqrt(get_eps()):
                mask |= 1 << i
        return mask
    _, w = _zi_ints(map(exact_entry, psi))
    if not any(map(any, w)):
        raise ValidationError("zero vector")
    mask = 0
    for i, atom in enumerate(v.atoms):
        if not any(map(any, _zi_apply(atom.matrix.data, w, v.dim))):
            mask |= 1 << i
    return mask


def _float_image_norm(data, re, im, dim: int) -> float:
    """||A v|| for float operator data A and the vector with parts re, im."""
    n = dim * dim
    a_re, a_im = data[:n], data[n:]
    total = 0.0
    for k in range(0, n, dim):
        row = a_re[k:k + dim]
        y_re, y_im = sum(map(mul, row, re)), sum(map(mul, row, im))
        if a_im:
            row = a_im[k:k + dim]
            y_re -= sum(map(mul, row, im))
            y_im += sum(map(mul, row, re))
        total += y_re * y_re + y_im * y_im
    return sqrt(total)
