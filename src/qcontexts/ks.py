"""Global-section search over context posets built from ray sets.

A ray set is a finite family of one-dimensional subspaces; each listed (or
discovered) orthogonal basis generates a maximal context. A global section
of the spectral presheaf picks one functional per context compatibly with
every restriction; uncolourable ray sets are certified by an exhaustive
search returning no section.
"""

from __future__ import annotations

import os
import time
from itertools import combinations, product

from .contexts import (
    DIM_BOUND,
    Context,
    ContextPoset,
    SpectralFunctional,
    _AtomTable,
    _bits,
    build_poset,
    restrict_functional,
)
from .linalg import Projector, ValidationError, read_json_file
from .records import Record


class RaySet:
    """Deduplicated rays with the orthogonal bases found among them.

    The set's own ``_AtomTable`` deduplicates the rays and decides each pair
    of them once; bases, pair contexts and the poset build read its masks.
    Declared bases index the rays as given, duplicates included; they are
    stored, sorted, against the deduplicated rays.
    """

    __slots__ = ("dim", "rays", "projectors", "table", "bases")

    def __init__(self, dim: int, rays, bases=None):
        if not _is_index(dim) or not 1 <= dim <= DIM_BOUND:
            raise ValidationError(f"dim must be an integer in [1, {DIM_BOUND}], got {dim!r}")
        if not isinstance(rays, (list, tuple)):
            raise ValidationError("rays must be a list")
        self.dim = dim
        table = _AtomTable()
        kept = []
        where = []  # given ray index -> index among the kept rays
        for k, ray in enumerate(rays):
            if not isinstance(ray, (list, tuple)) or len(ray) != dim:
                raise ValidationError(f"ray {k} is not a list of {dim} entries")
            if any(_is_bad_entry(x) for x in ray):
                raise ValidationError(f"ray {k} has a boolean or null entry")
            try:
                p = Projector.from_ray(ray, "exact")
            except ValidationError:
                raise
            except (ArithmeticError, TypeError, ValueError) as exc:
                raise ValidationError(f"ray {k} has an entry that is not an exact "
                                      f"number ({type(exc).__name__}: {exc})") from None
            i = table.intern(p)
            if i == len(kept):  # a ray not seen before
                kept.append(tuple(ray))
            where.append(i)
        self.rays = tuple(kept)
        self.projectors = tuple(table.atoms)
        self.table = table
        if bases is None:
            bases = discover_bases(table.overlap, dim)
        else:
            if not isinstance(bases, (list, tuple)):
                raise ValidationError("bases must be a list")
            bases = [self._declared_basis(b, where) for b in bases]
        self.bases = tuple(sorted(set(bases)))

    def _declared_basis(self, b, where) -> tuple:
        """Check a basis of given ray indices; return its kept-ray indices, sorted."""
        if not isinstance(b, (list, tuple)) or len(b) != self.dim:
            raise ValidationError(f"basis {b!r} is not a list of {self.dim} ray indices")
        for i in b:
            if not _is_index(i) or not 0 <= i < len(where):
                raise ValidationError(f"basis {b!r}: {i!r} is not a ray index "
                                      f"in [0, {len(where)})")
        for i, j in combinations(b, 2):
            if self.table.overlap[where[i]] >> where[j] & 1:
                raise ValidationError(f"rays {i} and {j} in basis {b} are not orthogonal")
        return tuple(sorted(where[i] for i in b))

    @property
    def n_rays(self) -> int:  # perfbench/tracer.py reads it
        return len(self.rays)


def _is_index(x) -> bool:
    """A non-bool int: JSON's true and false load as bools, which are ints."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_bad_entry(x) -> bool:
    """A boolean or null ray entry, or an ``[a, b]`` pair holding one at
    any depth. The walk keeps its own stack, so no nesting depth exhausts
    the interpreter's."""
    todo = [x]
    while todo:
        y = todo.pop()
        if isinstance(y, (list, tuple)):
            todo.extend(y)
        elif y is None or isinstance(y, bool):
            return True
    return False


def discover_bases(overlap, dim: int):
    """All orthogonal bases, as sorted index tuples in lexicographic order,
    of the rays whose ``_AtomTable`` overlap masks are ``overlap``. A clique
    grows only through the later rays orthogonal to all of it (Bron and
    Kerbosch, without pivoting)."""
    bases = []

    def extend(clique, candidates):
        if len(clique) == dim:
            bases.append(tuple(clique))
            return
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            k = low.bit_length() - 1
            extend(clique + [k], candidates & ~overlap[k])

    extend([], (1 << len(overlap)) - 1)
    return bases


def load_rayset(source) -> RaySet:
    """Load a ray set from a JSON file path, a packaged fixture name, or a dict.

    Schema: ``{"dim": int, "field": "int" | "quadratic_sqrt2", "rays": [...],
    "bases": [[i, ...], ...]?}``. Integer-field entries are ints or 'p/q'
    strings, and an ``[a, b]`` entry in an integer-field file (the default)
    is refused; quadratic entries may also be ``[a, b]`` pairs for
    a+b*sqrt(2). Missing bases are discovered by orthogonality search.
    """
    if isinstance(source, dict):
        obj = source
    else:
        path = str(source)
        if "/" not in path:
            fixture = os.path.join(os.path.dirname(__file__), "data",
                                   path if path.endswith(".json") else path + ".json")
            if os.path.isfile(fixture):
                path = fixture
        obj = read_json_file(path)
    if not isinstance(obj, dict):
        raise ValidationError("a ray set must be a JSON object")
    field = obj.get("field", "int")
    if field not in ("int", "quadratic_sqrt2"):
        raise ValidationError(f"unknown field {field!r}")
    rays = obj.get("rays")
    if field == "int" and isinstance(rays, (list, tuple)):
        for k, ray in enumerate(rays):
            if isinstance(ray, (list, tuple)) and any(isinstance(x, (list, tuple)) for x in ray):
                raise ValidationError(f'ray {k} has an [a, b] entry, which needs '
                                      f'"field": "quadratic_sqrt2"')
    return RaySet(obj["dim"], obj["rays"], bases=obj.get("bases"))


def poset_from_rayset(rayset: RaySet, close: bool = True,
                      include_pairs: bool = False, coarsenings: bool = False) -> ContextPoset:
    """One maximal context per basis, optionally closed under pairwise meets.

    With ``include_pairs`` every orthogonal ray pair also contributes the
    context it generates (the two rank-1 projectors plus their joint
    complement). Pairs whose completing ray is itself in some listed basis
    deduplicate into that basis's context; the others add genuine
    constraints, which some uncolourable sets need. A ray set with no
    complete orthogonal bases yields the poset containing only the trivial
    context. With ``coarsenings`` the poset is instead every coarsening of
    these contexts, from one `build_poset` (``close`` does not apply): a
    context below another is one of its coarsenings, so these are the
    coarsenings of the maximal contexts.
    """
    ps = rayset.projectors
    # a basis's rays are pairwise orthogonal, and dim orthogonal rank-1
    # projectors in dimension dim sum to the identity
    gens = [Context([ps[i] for i in b], validate=False) for b in rayset.bases]
    if include_pairs:
        for i, p in enumerate(ps):
            later = (1 << len(ps)) - (2 << i)  # the rays after ray i
            for j in _bits(later & ~rayset.table.overlap[i]):
                rest = Projector(p.matrix + ps[j].matrix, validate=False).complement()
                atoms = [p, ps[j]] + ([] if rest.is_zero() else [rest])
                gens.append(Context(atoms, validate=False))
    return build_poset(gens, close_under_meet=close and not coarsenings, dim=rayset.dim,
                       backend="exact", coarsenings=coarsenings, table=rayset.table)


# ---------------------------------------------------------------------------
# problem compilation
# ---------------------------------------------------------------------------


class CompiledProblem(Record):
    """The section-search CSP: one choice variable per maximal context and
    one forced-value slot per non-maximal context.

    ``constraints[i]`` lists, for the i-th maximal context in search order,
    a ``(slot, rmap)`` pair per context below it: choosing atom ``a`` forces
    ``rmap[a]`` into ``slot``.
    """

    __slots__ = ("maximal_ids", "slot_ids", "natoms", "constraints")

    def __init__(self, maximal_ids: tuple, slot_ids: tuple, natoms: tuple, constraints: tuple):
        object.__setattr__(self, "maximal_ids", maximal_ids)
        object.__setattr__(self, "slot_ids", slot_ids)
        object.__setattr__(self, "natoms", natoms)
        object.__setattr__(self, "constraints", constraints)


def compile_problem(poset: ContextPoset) -> CompiledProblem:
    """Order the maximal contexts most-constrained-first and attach to each
    its restriction maps onto the slots below it."""
    maximal = poset.maximal_ids()
    slots = [cid for cid in poset.ids() if cid not in set(maximal)]
    slot_index = {cid: i for i, cid in enumerate(slots)}
    children = {
        m: tuple(c for c in poset.below(m) if c != m and c in slot_index) for m in maximal
    }

    # greedy: repeatedly take the context sharing the most already-touched
    # slots (fail-fast ordering); ids break ties deterministically
    ordered = []
    touched: set = set()
    remaining = sorted(maximal)
    while remaining:
        best = max(remaining, key=lambda m: (len(set(children[m]) & touched),
                                             len(children[m]), m))
        ordered.append(best)
        touched.update(children[best])
        remaining.remove(best)

    return CompiledProblem(
        tuple(ordered),
        tuple(slots),
        tuple(poset.contexts[m].n_atoms for m in ordered),
        tuple(
            tuple((slot_index[c], poset.restriction[(c, m)]) for c in children[m])
            for m in ordered
        ),
    )


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def search_sections(natoms, constraints, n_slots, want_all=False, limit=0):
    """Depth-first search over per-context atom choices.

    Context ``i`` has ``natoms[i]`` atoms; choosing atom ``a`` for it forces
    ``rmap[a]`` into ``slot`` for every ``(slot, rmap)`` in
    ``constraints[i]``. A full choice is a solution iff it forces no slot two
    different ways. Returns ``(solutions, nodes)``: each solution is a tuple
    of atom indices in context order, and ``nodes`` counts attempted atoms.
    Without ``want_all`` the search stops at the first solution;
    ``limit <= 0`` means unbounded.
    """
    k = len(natoms)
    slot_values = [-1] * n_slots
    trail = [[] for _ in range(k)]  # slots first forced at each depth
    choice = [-1] * k
    solutions = []
    nodes = 0
    depth = 0
    while depth >= 0:
        if depth == k:
            solutions.append(tuple(choice))
            if not want_all or 0 < limit <= len(solutions):
                break
            depth -= 1
            continue
        forced_here = trail[depth]
        for s in forced_here:
            slot_values[s] = -1
        forced_here.clear()
        a = choice[depth] + 1
        if a == natoms[depth]:
            choice[depth] = -1
            depth -= 1
            continue
        choice[depth] = a
        nodes += 1
        for s, rmap in constraints[depth]:
            forced = rmap[a]
            cur = slot_values[s]
            if cur == -1:
                slot_values[s] = forced
                forced_here.append(s)
            elif cur != forced:
                break
        else:
            depth += 1
    return solutions, nodes


class SectionAssignment(Record):
    """A full choice of one atom index per context id."""

    __slots__ = ("choices",)

    def __init__(self, choices: dict):
        object.__setattr__(self, "choices", choices)

    def to_json(self) -> dict:
        return dict(sorted(self.choices.items()))


def _expand(problem: CompiledProblem, poset: ContextPoset, raw) -> SectionAssignment:
    choices = {}
    for m, a in zip(problem.maximal_ids, raw):
        choices[m] = a
        for c in poset.below(m):
            if c == m:
                continue
            choices[c] = poset.restriction[(c, m)][a]
    return SectionAssignment(choices)


def _search(poset: ContextPoset, want_all: bool, limit: int, timings: bool):
    problem = compile_problem(poset)
    t0 = time.perf_counter()
    solutions, nodes = search_sections(problem.natoms, problem.constraints,
                                       len(problem.slot_ids), want_all, limit)
    elapsed = (time.perf_counter() - t0) * 1000.0
    report = {
        "exists": bool(solutions),
        "n_contexts": len(poset),
        "n_maximal": len(problem.maximal_ids),
        "nodes": nodes,
        "kernel": "python",
        "elapsed_ms": round(elapsed, 3) if timings else None,
    }
    return [_expand(problem, poset, s) for s in solutions], report


def find_global_section(poset: ContextPoset, timings: bool = False):
    """First global section if one exists, with a search report.

    Returns ``(assignment_or_None, report)``; the report is deterministic
    (``elapsed_ms`` stays null unless timings are requested).
    """
    sections, report = _search(poset, False, 1, timings)
    return (sections[0] if sections else None), report


def enumerate_global_sections(poset: ContextPoset, limit: int = 0, timings: bool = False):
    """All global sections (up to ``limit`` if positive), with a report."""
    sections, report = _search(poset, True, limit, timings)
    report["n_sections"] = len(sections)
    return sections, report


def validate_section(assignment: SectionAssignment, poset: ContextPoset) -> bool:
    """Independent check against the restriction of functionals themselves."""
    for cid in poset.ids():
        if cid not in assignment.choices:
            return False
        if not 0 <= assignment.choices[cid] < poset.contexts[cid].n_atoms:
            return False
    for sub, sup in poset.proper_pairs():
        k = SpectralFunctional(sup, assignment.choices[sup])
        restricted = restrict_functional(k, poset.contexts[sup], poset.contexts[sub])
        if restricted.index != assignment.choices[sub]:
            return False
    return True


def brute_force_sections(poset: ContextPoset, limit: int = 0):
    """Oracle: plain product over all maximal-context atom choices, each tuple
    checked against the poset's restriction tables. Shares no code with the
    backtracking kernel. Exponential; test-scale inputs only."""
    maximal = sorted(poset.maximal_ids())
    lower = {
        m: [(c, poset.restriction[(c, m)]) for c in poset.below(m) if c != m]
        for m in maximal
    }
    out = []
    for combo in product(*(range(poset.contexts[m].n_atoms) for m in maximal)):
        choices = dict(zip(maximal, combo))
        ok = True
        for m, a in zip(maximal, combo):
            for c, rmap in lower[m]:
                if choices.setdefault(c, rmap[a]) != rmap[a]:
                    ok = False
                    break
            if not ok:
                break
        if ok and len(choices) == len(poset):
            out.append(SectionAssignment(choices))
            if limit > 0 and len(out) >= limit:
                break
    return out
