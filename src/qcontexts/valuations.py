"""Sieves, the subobject classifier on the context poset, and sieve-valued
generalized valuations derived from quantum states.

A sieve at a stage is a lower set of contexts below that stage, stored as an
int over the poset's context index: bit k stands for the k-th id of
``poset.ids()``. Pullback to a lower stage is ``&`` with its down-set. A
valuation table assigns a sieve to every lattice element of every stage; the
table built from a state puts a context into the sieve of a projector
whenever the coarse-grained projector carries Born weight 1 (or at least r).
"""

from __future__ import annotations

from fractions import Fraction

from .coarse import LatticeElement, image_arrays, lattice_covers, lattice_size, top
from .contexts import ContextPoset, _bits
from .linalg import DensityMatrix, ValidationError, born_probability, get_eps
from .records import Record
from .scalars import QSqrt2, integer_pairs, sign_sqrt2


def _down_masks(poset: ContextPoset) -> dict:
    """Each stage's principal sieve, as an int: bit k stands for the k-th id
    of ``poset.ids()``."""
    bit = {cid: 1 << k for k, cid in enumerate(poset.ids())}
    return {cid: sum(bit[c] for c in poset.below(cid)) for cid in bit}


def _names(ids, sieve: int) -> list:
    """The sorted context ids of a sieve, given ``poset.ids()``."""
    return [ids[k] for k in _bits(sieve)]


# ---------------------------------------------------------------------------
# state-derived valuations
# ---------------------------------------------------------------------------


def stage_weights(rho: DensityMatrix, poset: ContextPoset) -> dict:
    """Per-stage tuple of atom Born weights; masses of lattice elements are
    sums over masked atoms."""
    out = {}
    for cid in poset.ids():
        v = poset.contexts[cid]
        out[cid] = tuple(born_probability(rho, a) for a in v.atoms)
    return out


def _truth_tables(weights: dict, limit) -> dict:
    """Per stage, whether each mask carries Born weight at least ``limit``,
    as a list indexed by mask. Whether a coarse-grained element is in a
    sieve depends only on the lower stage and the image mask, so each
    (stage, mask) pair is decided once.

    A float ``limit`` is r - eps, compared with float masses. An exact one
    is r as integers ``(rd, ra, rb)``, r = (ra + rb sqrt 2) / rd, and each
    stage's weights are taken once as integer pairs over one denominator d
    (`integer_pairs`). A mask whose mass is (A + B sqrt 2) / d then has
    weight at least r iff (rd A - ra d) + (rd B - rb d) sqrt 2 >= 0: the
    masses are built as these two integer differences, and `sign_sqrt2`
    decides each, with no Fraction made."""
    if isinstance(limit, float):
        return {cid: [x >= limit for x in _masses(w, 0)] for cid, w in weights.items()}
    rd, ra, rb = limit
    out = {}
    for cid, w in weights.items():
        d, a, b = integer_pairs(w)
        xs = _masses([rd * x for x in a], -ra * d)
        ys = _masses([rd * y for y in b], -rb * d)
        out[cid] = [sign_sqrt2(x, y) >= 0 for x, y in zip(xs, ys)]
    return out


def _masses(w, empty) -> list:
    """The mass of every mask, indexed by mask, starting from ``empty`` at
    mask 0: a mask's mass is its highest atom's weight plus the mass of the
    rest, so the atoms are added from the lowest up, as one sum per mask
    would add them, and float masses keep their bits."""
    mass = [empty]
    for x in w:
        mass += [x + m for m in mass]
    return mass


class PresheafTables(Record):
    """What the constructions of a state on a poset read: each stage's atom
    Born weights, each stage's truth table at threshold r, and the image
    array (`image_masks`) of every proper morphism under
    ``poset.restriction``. One command builds one of these."""

    __slots__ = ("poset", "weights", "truth", "images")

    def __init__(self, poset: ContextPoset, weights: dict, truth: dict, images: dict):
        object.__setattr__(self, "poset", poset)
        # context id -> tuple of atom Born weights
        object.__setattr__(self, "weights", weights)
        # context id -> list indexed by mask: weight >= r
        object.__setattr__(self, "truth", truth)
        # (sub, sup) -> list indexed by mask of sup: image mask in sub
        object.__setattr__(self, "images", images)


def presheaf_tables(rho: DensityMatrix, poset: ContextPoset, r) -> PresheafTables:
    """Weights, truth tables and image arrays of a state on a poset, each
    computed once."""
    limit = _limit(r, poset.backend)
    weights = stage_weights(rho, poset)
    # the lattice bound applies before any 2^k table is built
    for cid in poset.ids():
        lattice_size(poset.contexts[cid])
    truth = _truth_tables(weights, limit)
    images = image_arrays({pair: poset.restriction[pair] for pair in poset.proper_pairs()}, {})
    return PresheafTables(poset, weights, truth, images)


def _limit(r, backend: str):
    """The threshold `_truth_tables` compares with: r - eps on the float
    backend, and r as integers ``(rd, ra, rb)``, r = (ra + rb sqrt 2) / rd,
    on the exact one, where a float r is read as the nearest fraction with
    denominator at most 10^9. Raises unless 0 < r <= 1: in floats for a
    float r, and exactly for an int, Fraction or QSqrt2 (and for the
    fraction a float r is read as)."""
    if isinstance(r, float):
        if not 0 < r <= 1:
            raise ValidationError("threshold r must lie in (0, 1]")
        if backend == "float":
            return r - get_eps()
        r = Fraction(r).limit_denominator(10**9)
    rd, (ra,), (rb,) = integer_pairs([r if isinstance(r, QSqrt2) else Fraction(r)])
    if sign_sqrt2(ra, rb) <= 0 or sign_sqrt2(rd - ra, -rb) < 0:
        raise ValidationError("threshold r must lie in (0, 1]")
    if backend == "float":
        return float(r) - get_eps()
    return rd, ra, rb


class ValuationTable:
    """A total assignment of sieves to every lattice element of every stage,
    with the presheaf tables its squares are checked against and each
    stage's principal sieve (``down``)."""

    __slots__ = ("tables", "poset", "maps", "down")

    def __init__(self, tables: PresheafTables, maps: dict):
        self.tables = tables
        self.poset = poset = tables.poset
        # context id -> list of sieves indexed by mask
        self.maps = maps
        self.down = _down_masks(poset)
        for cid in poset.ids():
            stage_map = maps.get(cid)
            if stage_map is None:
                raise ValidationError(f"valuation table is missing stage {cid}")
            if len(stage_map) != 1 << poset.contexts[cid].n_atoms:
                raise ValidationError(f"table not total at stage {cid}")

    def sieve(self, elem: LatticeElement) -> int:
        return self.maps[elem.context_id][elem.mask]

    def to_json(self) -> dict:
        ids = self.poset.ids()
        return {
            cid: {str(mask): _names(ids, s) for mask, s in enumerate(stage)}
            for cid, stage in self.maps.items()
        }


def valuation_table(tables: PresheafTables) -> ValuationTable:
    """Materialize the state-derived valuation over the whole poset. The
    sieve of a mask at stage cid holds the contexts below cid whose truth
    table holds at the mask's image there; the image of the reflexive pair
    is the identity, so cid reads its own table. Raises `ValidationError`
    if a sieve is not a lower set."""
    poset, truth, images = tables.poset, tables.truth, tables.images
    ids = poset.ids()
    bit = {cid: 1 << k for k, cid in enumerate(ids)}
    maps = {}
    for cid in ids:
        stage = [0] * len(truth[cid])
        for sub in poset.below(cid):
            row = truth[cid] if sub == cid else [truth[sub][q] for q in images[(sub, cid)]]
            for m, holds in enumerate(row):
                if holds:
                    stage[m] |= bit[sub]
        maps[cid] = stage
    table = ValuationTable(tables, maps)
    down = [table.down[cid] for cid in ids]
    for s in {s for stage in maps.values() for s in stage}:
        if any(down[k] & ~s for k in _bits(s)):
            raise ValidationError("sieve is not a lower set")
    return table


# ---------------------------------------------------------------------------
# axiom checking
# ---------------------------------------------------------------------------


def check_valuation(table: ValuationTable, require_exclusivity: bool = True,
                    require_unit: bool = True) -> dict:
    """Per-axiom report: functional composition, null proposition,
    monotonicity, and (optionally) exclusivity and unit."""
    poset = table.poset
    ids = poset.ids()
    report = {
        "functional_composition": {"ok": True, "counterexample": None},
        "null_proposition": {"ok": True, "counterexample": None},
        "monotonicity": {"ok": True, "counterexample": None},
        "exclusivity": {"ok": True, "counterexample": None, "checked": require_exclusivity},
        "unit_proposition": {"ok": True, "counterexample": None, "checked": require_unit},
    }

    _, square = _first_failing_square(table, table.tables.images)
    if square is not None:
        sub, sup, mask, pulled, assigned = square
        report["functional_composition"] = {
            "ok": False,
            "counterexample": {
                "morphism": [sub, sup],
                "mask": mask,
                "valuation_of_coarse": _names(ids, assigned),
                "pullback": _names(ids, pulled),
            },
        }

    for cid in ids:
        if table.sieve(LatticeElement(cid, 0)):
            report["null_proposition"] = {
                "ok": False,
                "counterexample": {"stage": cid},
            }
            break

    if require_unit:
        for cid in ids:
            t = table.sieve(top(poset.contexts[cid]))
            if t != table.down[cid]:
                report["unit_proposition"] = {
                    "ok": False,
                    "counterexample": {"stage": cid, "sieve": _names(ids, t)},
                    "checked": True,
                }
                break

    for cid in ids:
        stage = table.maps[cid]
        cover = next(((p, q) for p, q in lattice_covers(poset.contexts[cid].n_atoms)
                      if stage[p] & ~stage[q]), None)
        if cover is not None:
            report["monotonicity"] = {
                "ok": False,
                "counterexample": {"stage": cid, "p": cover[0], "q": cover[1]},
            }
            break

    if require_exclusivity:
        for cid in ids:
            true_v = table.down[cid]
            pair = _first_disjoint_pair(m for m, s in enumerate(table.maps[cid]) if s == true_v)
            if pair is not None:
                report["exclusivity"] = {
                    "ok": False,
                    "counterexample": {"stage": cid, "p": pair[0], "q": pair[1]},
                    "checked": True,
                }
                break

    report["ok"] = all(axiom["ok"] for axiom in report.values())
    return report


def natural_transformation_check(table: ValuationTable, maps: dict) -> dict:
    """Independent cross-check: the per-stage maps commute with the morphism
    actions of the coarse-graining presheaf and the classifier (naturality
    square), verified square by square. Coarse-graining here follows
    ``maps``, the atom maps recomputed from the projector order by
    `projector_restrictions`, so a restriction table that disagrees with the
    matrices fails the check."""
    restriction = table.poset.restriction
    images = image_arrays(maps, {restriction[pair]: img
                                 for pair, img in table.tables.images.items()})
    squares, square = _first_failing_square(table, images)
    if square is None:
        return {"ok": True, "squares_checked": squares, "counterexample": None}
    sub, sup, mask, pulled, assigned = square
    ids = table.poset.ids()
    return {
        "ok": False,
        "squares_checked": squares,
        "counterexample": {
            "morphism": [sub, sup],
            "mask": mask,
            "pulled": _names(ids, pulled),
            "assigned": _names(ids, assigned),
        },
    }


def _first_failing_square(table: ValuationTable, images: dict):
    """Walk the squares (morphism sub < sup, element of sup) in order: each
    commutes when the element's sieve pulled back to sub (ANDed with sub's
    down-set) is the sieve of its image ``images[(sub, sup)][mask]``.
    Returns the number of squares visited and the first failing one,
    (sub, sup, mask, pulled, assigned)."""
    squares = 0
    for sub, sup in table.poset.proper_pairs():
        below_sub = table.down[sub]
        lower, upper = table.maps[sub], table.maps[sup]
        img = images[(sub, sup)]
        for mask, image in enumerate(img):
            if upper[mask] & below_sub != lower[image]:
                return squares + mask + 1, (sub, sup, mask, upper[mask] & below_sub, lower[image])
        squares += len(img)
    return squares, None


def _first_disjoint_pair(masks):
    """The first pair p < q of disjoint nonzero masks, in sorted order, or None."""
    ms = sorted(m for m in masks if m)
    for i, p in enumerate(ms):
        for q in ms[i + 1 :]:
            if p & q == 0:
                return p, q
    return None
