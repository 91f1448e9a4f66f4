"""Run one qcontexts CLI command with spans around each layer's public
functions, then write the spans as JSON.

Usage: python3 perfbench/tracer.py SPANS_OUT CLI_ARG...

Each wrapper is installed where its callers look the function up (for
example ``ks`` imports ``build_poset`` and ``search_sections`` by name), so
no call bypasses it. A span is [name, start, end, parent index]; counts are
read from return values. Self times are summed as calls return; spans stay
in memory until the command returns.
"""

from __future__ import annotations

import json
import sys
import time

SPANS: list = []
STACK: list = []
SELF: dict = {}
COUNTS: dict = {}

# Called tens of thousands of times per command: timed and counted, but
# kept out of the span list so that tracing stays cheap.
HOT = {"linalg.orthogonal_to", "linalg.leq", "linalg.born_probability",
       "contexts.is_subalgebra", "contexts.meet"}


def _count(name: str, n: int = 1) -> None:
    COUNTS[name] = COUNTS.get(name, 0) + n


def _traced(name, fn, counter=None):
    """Wrap fn so that each call adds its self time (its duration minus its
    traced callees') to SELF[name] and, unless hot, records a span."""
    keep = name not in HOT

    def wrapper(*args, **kwargs):
        frame = [0.0, len(SPANS) if keep else -1]
        parent = STACK[-1][1] if STACK else -1
        if keep:
            SPANS.append([name, 0.0, 0.0, parent])
        STACK.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            STACK.pop()
            if STACK:
                STACK[-1][0] += end - start
            SELF[name] = SELF.get(name, 0.0) + (end - start) - frame[0]
            if keep:
                SPANS[frame[1]][1:3] = start, end
        _count(name + "#calls")
        if counter is not None:
            counter(result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _patch(owners, attr, name, counter=None):
    """Replace ``attr`` on every owner (module or class) that holds it."""
    original = getattr(owners[0], attr)
    wrapper = _traced(name, original, counter)
    for owner in owners:
        if getattr(owner, attr) is not original:
            raise RuntimeError(f"{owner.__name__}.{attr} is not the function traced")
        setattr(owner, attr, wrapper)


def _poset_counts(poset):
    _count("contexts.contexts", len(poset))
    _count("contexts.order_pairs", len(poset.leq) - len(poset))


def _rayset_counts(rs):
    _count("ks.rays", rs.n_rays)
    _count("ks.bases", len(rs.bases))


def install(cli):
    from qcontexts import coarse, contexts, intervals, ks, linalg, valuations

    _patch([cli], "_emit", "cli.emit")
    _patch([ks], "load_rayset", "ks.load_rayset", _rayset_counts)
    _patch([ks], "poset_from_rayset", "ks.poset_from_rayset")
    _patch([ks], "find_global_section", "ks.find_global_section")
    _patch([ks], "search_sections", "kernel.search",
           lambda res: _count("ks.search_nodes", res[1]))
    _patch([ks], "validate_section", "ks.validate_section")
    _patch([contexts, ks], "build_poset", "contexts.build_poset", _poset_counts)
    from_json = contexts.ContextPoset.__dict__["from_json"].__func__
    contexts.ContextPoset.from_json = classmethod(_traced("contexts.from_json", from_json))
    _patch([contexts], "meet", "contexts.meet")
    _patch([contexts], "is_subalgebra", "contexts.is_subalgebra")
    _patch([contexts], "all_coarsenings", "contexts.all_coarsenings")
    _patch([contexts], "check_state_global_element", "contexts.check_state_global_element")
    _patch([linalg.Projector], "orthogonal_to", "linalg.orthogonal_to")
    _patch([linalg.Projector], "leq", "linalg.leq")
    _patch([linalg, contexts, valuations], "born_probability", "linalg.born_probability")
    _patch([valuations, intervals], "stage_weights", "valuations.stage_weights")
    _patch([valuations], "valuation_table", "valuations.valuation_table")
    _patch([valuations], "check_valuation", "valuations.check_valuation")
    _patch([valuations], "natural_transformation_check", "valuations.naturality",
           lambda rep: _count("valuations.naturality_squares", rep["squares_checked"]))
    _patch([intervals], "true_subobject", "intervals.true_subobject")
    _patch([intervals], "probability_family", "intervals.probability_family")
    _patch([intervals], "check_coarse_subobject", "intervals.coarse_subobject")
    _patch([intervals], "check_semantic_subobject", "intervals.semantic_subobject")
    _patch([intervals], "global_element_from_valuation", "intervals.global_element")
    _patch([intervals], "ideal_valuation", "intervals.ideal_valuation")
    _patch([coarse], "coarse_functoriality_check", "coarse.functoriality",
           lambda rep: _count("coarse.functoriality_chains", rep["chains_checked"]))
    _patch([coarse], "clopen_iso_check", "coarse.clopen_iso")


def main(argv) -> int:
    out, cli_args = argv[0], argv[1:]
    t0 = time.perf_counter()
    import qcontexts.cli as cli
    t1 = time.perf_counter()
    SPANS.append(["cli.import", t0, t1, -1])
    SELF["cli.import"] = t1 - t0
    install(cli)
    try:
        rc = cli.main(cli_args)
    finally:
        with open(out, "w") as fh:
            json.dump({"spans": SPANS, "self": SELF, "counts": COUNTS}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
