"""Command-line interface.

Subcommands build context posets from ray-set files, compute and check
state-derived valuations and interval constructions, and run the
global-section search. All reports are JSON with sorted keys and embed the
config that produced them; repeated runs on the same inputs are
byte-identical (timings stay null unless requested).

Exit codes: 0 success, 1 a checked property failed (reported), 2 usage or
input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from . import coarse, contexts, intervals, ks, valuations
from .linalg import DensityMatrix, ValidationError, read_json_file
from .scalars import get_eps, set_eps


def _load_poset(args) -> contexts.ContextPoset:
    if args.poset:
        if args.rays or args.pairs or args.coarsenings or not args.close:
            raise ValidationError("--rays, --pairs, --coarsenings and --no-close "
                                  "do not apply to --poset")
        return contexts.ContextPoset.from_json(read_json_file(args.poset))
    if args.rays:
        if getattr(args, "eps", None) is not None:
            raise ValidationError("--eps does not apply to --rays: ray sets are exact")
        if args.coarsenings and not args.close:
            raise ValidationError("--no-close does not apply to --coarsenings: "
                                  "the coarsenings are not closed under meets")
        return ks.poset_from_rayset(ks.load_rayset(args.rays), close=args.close,
                                    include_pairs=args.pairs, coarsenings=args.coarsenings)
    raise ValidationError("no input: pass --rays or --poset")


def _parse_state(spec: str, dim: int, backend: str) -> DensityMatrix:
    """State specs: 'maximally-mixed', 'basis-k', 'diag:w0,w1,..',
    'vec:v0,v1,..' (real components, fractions or decimals), or a JSON file
    holding a density matrix, which is a float state and so needs a float
    (``--poset``) poset."""
    if spec == "maximally-mixed":
        return DensityMatrix.maximally_mixed(dim, backend)
    vec = _state_vector(spec, dim)
    if vec is not None:
        if backend == "float":
            vec = _floats(vec)
        return DensityMatrix.pure(vec, backend)
    if spec.startswith("diag:"):
        parts = _numbers(spec[len("diag:"):])
        if len(parts) != dim:
            raise ValidationError(f"diag state has {len(parts)} weights, dim is {dim}")
        if backend == "float":
            return DensityMatrix.from_diag(_floats(parts), backend)
        return DensityMatrix.from_diag(parts, backend)
    if backend != "float":
        raise ValidationError("a density-matrix file is a float state: use it with --poset, "
                              "or give maximally-mixed / basis-k / diag: / vec: with --rays")
    return DensityMatrix.from_json(read_json_file(spec))


def _state_vector(spec: str, dim: int):
    """The vector of a pure-state spec ('basis-k' or 'vec:..'); None for
    any other spec."""
    if spec.startswith("basis-"):
        k = int(spec[len("basis-"):])
        if not 0 <= k < dim:
            raise ValidationError(f"basis index {k} out of range for dim {dim}")
        vec = [0] * dim
        vec[k] = 1
        return vec
    if spec.startswith("vec:"):
        return _numbers(spec[len("vec:"):])
    return None


def _number(text: str) -> Fraction:
    """An int, 'p/q' fraction or decimal, exactly."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValidationError(f"zero denominator in {text!r}") from None


def _numbers(text: str) -> list:
    return [_number(x) for x in text.split(",")]


def _floats(numbers) -> list:
    try:
        return [float(x) for x in numbers]
    except OverflowError:
        raise ValidationError("a state entry is too large for the float backend") from None


def _parse_r(args):
    r = _number(args.r)
    if not 0 < r <= 1:
        raise ValidationError("threshold r must lie in (0, 1]")
    return r


def _presheaf_tables(args, poset, r) -> valuations.PresheafTables:
    """The state's presheaf tables at the threshold r."""
    rho = _parse_state(args.state, poset.dim, poset.backend)
    return valuations.presheaf_tables(rho, poset, r)


_INF = float("inf")


def _json_text(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=1)``, byte for byte, for the
    values reports hold: dicts with str keys, lists, str, int, float, bool
    and None. Any other value raises TypeError. With an indent, json.dumps
    falls back to its pure-Python encoder, a chain of generators with
    isinstance tests and a cycle check; this one writes the same text
    faster."""
    out = []
    _write(obj, out, "\n")
    return "".join(out)


def _write(obj, out: list, pad: str) -> None:
    kind = type(obj)
    if kind is str:
        out.append(_quote(obj))
    elif kind is int:
        out.append(int.__repr__(obj))
    elif kind is float:
        if obj != obj:
            out.append("NaN")
        elif obj == _INF:
            out.append("Infinity")
        elif obj == -_INF:
            out.append("-Infinity")
        else:
            out.append(float.__repr__(obj))
    elif kind is bool:
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    elif kind is list:
        if not obj:
            out.append("[]")
            return
        inner = pad + " "
        sep = "[" + inner
        for value in obj:
            out.append(sep)
            _write(value, out, inner)
            sep = "," + inner
        out.append(pad + "]")
    elif kind is dict:
        if not obj:
            out.append("{}")
            return
        inner = pad + " "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + _quote(key) + ": ")
            _write(value, out, inner)
            sep = "," + inner
        out.append(pad + "}")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _emit(report: dict, args) -> None:
    text = _json_text(report)
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _config_of(args) -> dict:
    skip = {"func", "output"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_build_poset(args) -> int:
    poset = _load_poset(args)
    report = {
        "config": _config_of(args),
        "poset": poset.to_json(),
        "n_contexts": len(poset),
        "n_maximal": len(poset.maximal_ids()),
    }
    _emit(report, args)
    return 0


def cmd_valuate(args) -> int:
    r = _parse_r(args)
    poset = _load_poset(args)
    table = valuations.valuation_table(_presheaf_tables(args, poset, r))
    axioms = valuations.check_valuation(
        table, require_exclusivity=not args.no_exclusivity,
        require_unit=not args.no_unit,
    )
    report = {
        "config": _config_of(args),
        "table": table.to_json(),
        "axioms": axioms,
        "ok": axioms["ok"],
    }
    _emit(report, args)
    return 0 if axioms["ok"] else 1


def cmd_intervals(args) -> int:
    if args.no_unit:
        raise ValidationError("--no-unit does not apply to intervals")
    r = _parse_r(args)
    poset = _load_poset(args)
    tables = _presheaf_tables(args, poset, r)
    table = valuations.valuation_table(tables)

    true_sub = intervals.true_subobject(tables)
    sigma_report = intervals.check_spectral_subobject(true_sub, poset)
    gamma, gamma_report = intervals.global_element_from_valuation(table, poset)
    family = intervals.probability_family(tables)
    g_report = intervals.check_coarse_subobject(family, tables)
    semantic = intervals.check_semantic_subobject(
        family, g_report, poset, require_exclusivity=not args.no_exclusivity)

    ideal_matches = None
    psi = _state_vector(args.state, poset.dim)
    if psi is not None:
        ideal = intervals.ideal_valuation(psi, poset)
        ideal_matches = ideal.sets == true_sub.sets

    ok = sigma_report["ok"] and gamma_report["ok"] and g_report["ok"] and semantic["ok"]
    if ideal_matches is not None:
        ok = ok and ideal_matches
    report = {
        "config": _config_of(args),
        "true_subobject": true_sub.to_json(),
        "spectral_subobject_check": sigma_report,
        "global_element": gamma.to_json() if gamma is not None else None,
        "global_element_check": gamma_report,
        "coarse_subobject_check": g_report,
        "semantic_subobject_check": semantic,
        "ideal_valuation_matches": ideal_matches,
        "ok": ok,
    }
    _emit(report, args)
    return 0 if ok else 1


def cmd_ks_check(args) -> int:
    poset = _load_poset(args)
    section, rep = ks.find_global_section(poset, timings=args.timings)
    valid = None
    if section is not None:
        valid = ks.validate_section(section, poset)
    report = {
        "config": _config_of(args),
        "section": section.to_json() if section is not None else None,
        "section_validates": valid,
        "nodes_explored": rep["nodes"],
        "n_contexts": rep["n_contexts"],
        "n_maximal": rep["n_maximal"],
        "kernel": rep["kernel"],
        "elapsed_ms": rep["elapsed_ms"],
    }
    _emit(report, args)
    return 0 if (section is None or valid) else 1


def cmd_verify_axioms(args) -> int:
    r = _parse_r(args)
    poset = _load_poset(args)
    tables = _presheaf_tables(args, poset, r)
    table = valuations.valuation_table(tables)
    maps = coarse.projector_restrictions(poset)

    checks = {
        "coarse_functoriality": coarse.coarse_functoriality_check(poset),
        "clopen_isomorphism": coarse.clopen_iso_check(poset, maps),
        "valuation_axioms": valuations.check_valuation(
            table, require_exclusivity=not args.no_exclusivity,
            require_unit=not args.no_unit,
        ),
        "naturality": valuations.natural_transformation_check(table, maps),
        "state_global_element": {
            "ok": contexts.check_state_global_element(tables.weights, poset)},
        "coarse_subobject": intervals.check_coarse_subobject(
            intervals.probability_family(tables), tables),
    }
    ok = all(c["ok"] for c in checks.values())
    report = {"config": _config_of(args), "checks": checks, "ok": ok}
    _emit(report, args)
    return 0 if ok else 1


def cmd_report(args) -> int:
    obj = read_json_file(args.input)
    sys.stdout.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _add_common(sp, state: bool = False):
    sp.add_argument("--rays", help="ray-set JSON file or packaged fixture name")
    sp.add_argument("--poset", help="poset JSON file (float backend)")
    sp.add_argument("--no-close", dest="close", action="store_false",
                    help="do not close the poset under meets")
    sp.add_argument("--pairs", action="store_true",
                    help="also generate contexts from orthogonal ray pairs")
    sp.add_argument("--coarsenings", action="store_true",
                    help="include every coarsening of each maximal context")
    sp.add_argument("--output", help="write the report here instead of stdout")
    sp.add_argument("--eps", type=float, default=None, help="float-backend tolerance")
    if state:
        sp.add_argument("--state", default="maximally-mixed",
                        help="maximally-mixed | basis-k | diag:w0,w1,.. | vec:.. | file")
        sp.add_argument("--r", default="1", help="probability threshold in (0,1]")
        sp.add_argument("--no-exclusivity", action="store_true")
        sp.add_argument("--no-unit", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qcontexts",
                                 description="context posets, valuations, and "
                                             "global-section search")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("build-poset", help="build a context poset from rays")
    _add_common(sp)
    sp.set_defaults(func=cmd_build_poset)

    sp = sub.add_parser("valuate", help="state-derived sieve valuation + axioms")
    _add_common(sp, state=True)
    sp.set_defaults(func=cmd_valuate)

    sp = sub.add_parser("intervals", help="interval-valued constructions + checks")
    _add_common(sp, state=True)
    sp.set_defaults(func=cmd_intervals)

    sp = sub.add_parser("ks-check", help="search for a global section")
    _add_common(sp)
    sp.add_argument("--timings", action="store_true",
                    help="include elapsed time (breaks byte-reproducibility)")
    sp.set_defaults(func=cmd_ks_check)

    sp = sub.add_parser("verify-axioms", help="run the full invariant suite")
    _add_common(sp, state=True)
    sp.set_defaults(func=cmd_verify_axioms)

    sp = sub.add_parser("report", help="pretty-print a JSON report")
    sp.add_argument("input")
    sp.set_defaults(func=cmd_report)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    previous_eps = get_eps()
    try:
        if getattr(args, "eps", None) is not None:
            set_eps(args.eps)
        return args.func(args)
    except (ValidationError, OSError, ValueError, KeyError) as exc:
        sys.stdout.write(json.dumps(
            {"error": f"{type(exc).__name__}: {exc}"}, sort_keys=True) + "\n")
        return 2
    finally:
        set_eps(previous_eps)


if __name__ == "__main__":
    sys.exit(main())
