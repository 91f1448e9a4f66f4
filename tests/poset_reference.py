"""The pairwise poset builder that the atom-table ``build_poset`` replaced,
kept as a test oracle.

It decides every pair of contexts afresh: ``meet`` for the closure and
``restriction_map`` for the order, each through the projector predicates of
the contexts' own atoms, and expands ``coarsenings`` with ``all_coarsenings``.
The tests compare the two builders on ids, order, down-sets, restriction maps
and poset JSON.
"""

from qcontexts.contexts import Context, ContextPoset, all_coarsenings, meet, restriction_map
from qcontexts.linalg import ValidationError


def reference_build_poset(generators, close_under_meet: bool = False, dim: int | None = None,
                          backend: str = "float", coarsenings: bool = False,
                          table=None) -> ContextPoset:
    # ``table`` is accepted and ignored: every relation is decided afresh
    if coarsenings:
        generators = [c for g in generators for c in all_coarsenings(g)]
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
