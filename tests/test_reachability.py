"""Every function of the package is reached by a command or kept for a
stated reason.

The commands below run in-process under ``sys.setprofile``, which records
each Python frame the package opens. Every non-dunder function or method
defined in ``src/qcontexts/`` must be among them or be named in ``KEEP``
with its reason; a name in ``KEEP`` must be defined and must stay
unreached, so the list says exactly what no command uses.
"""

import ast
import contextlib
import io
import json
import os
import sys

import pytest

import qcontexts
from qcontexts.cli import main

PACKAGE = os.path.dirname(os.path.abspath(qcontexts.__file__))

# frames name their function by ``code.co_qualname`` from Python 3.11 on
pytestmark = pytest.mark.skipif(sys.version_info < (3, 11), reason="needs co_qualname")

GATE = "acceptance gate: tests/test_acceptance.py reaches it"
TRACER = "perfbench/tracer.py reads it"

KEEP = {
    # acceptance gate
    "coarse.coarse_grain": GATE,
    "coarse.coarse_grain_bruteforce": GATE,
    "coarse.element_projector": GATE,
    "coarse.lattice": GATE,
    "contexts.ContextPoset.is_leq": GATE,
    "linalg.Projector.zero": GATE,
    "contexts.restrict_state": GATE,
    "intervals.interval_from_global_element": GATE,
    # oracles and test references
    "ks.brute_force_sections": "oracle: the brute-force section enumeration",
    "ks.enumerate_global_sections": "oracle reference: tests/test_ks.py checks the "
                                    "kernel's full solution set against brute force",
    "coarse.clopen_of": "test reference: the clopen sets of tests/test_presheaf_tables.py",
    "scalars.QSqrt2.key": "test reference: the stated equality behind linalg._exact_key",
    "scalars.ExactComplex.key": "test reference: the stated equality behind linalg._exact_key",
    "scalars.ExactComplex.conj": "oracle: the Gram-Schmidt of tests/test_exact_spectra.py",
    "linalg.HermitianOperator.is_zero": "oracle: tests/test_trace_kernel.py decides "
                                        "orthogonality as PQ = 0",
    # test generators
    "linalg.Projector.from_span": "test generator: conftest.coarsen_columns and the span tests",
    "linalg.HermitianOperator.zero": "test generator: the exact span build and the span tests",
    # operator arithmetic
    "linalg._exact_matmul": "operator arithmetic: exact @ keeps HermitianOperator "
                            "arithmetic whole on both backends",
    # perfbench/tracer.py patches these by name
    "contexts.meet": TRACER,
    "contexts.is_subalgebra": TRACER,
    "contexts.all_coarsenings": TRACER,
    "ks.RaySet.n_rays": TRACER,
}


def defined_names(package: str = PACKAGE) -> set:
    """``module.qualname`` of every non-dunder function defined in the
    package's modules, nested ones as ``outer.<locals>.inner``."""
    names = set()

    def walk(node, prefix, module):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".", module)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    names.add(f"{module}.{prefix}{child.name}")
                walk(child, prefix + child.name + ".<locals>.", module)
            else:
                walk(child, prefix, module)

    for filename in sorted(os.listdir(package)):
        if filename.endswith(".py"):
            with open(os.path.join(package, filename)) as fh:
                walk(ast.parse(fh.read()), "", filename[:-3])
    return names


def reached_names(commands, package: str = PACKAGE) -> set:
    """``module.qualname`` of every package function that a CLI command
    opens. Each command is an argv list; its exit code must be 0 or 1 and
    its output a report, not an error."""
    root = package + os.sep
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(root):
                module = os.path.basename(code.co_filename)[:-3]
                reached.add(f"{module}.{code.co_qualname}")

    previous = sys.getprofile()
    for argv in commands:
        out = io.StringIO()
        sys.setprofile(profile)
        try:
            with contextlib.redirect_stdout(out):
                code = main(argv)
        finally:
            sys.setprofile(previous)
        assert code in (0, 1) and not out.getvalue().startswith('{"error"'), (argv, out.getvalue())
    return reached


SUBCOMMANDS = ["build-poset", "valuate", "intervals", "ks-check", "verify-axioms"]


def sweep(tmp_path) -> list:
    """The commands of the guard: each bundled set under each subcommand,
    the four poset flags rotated across them, and the inputs no bundled set
    gives: a ray file without bases, an exact ``diag:`` state with a zero
    pivot and a pure state at r = 1/2; the last command writes the poset
    that `read_back` reads."""
    flags = [[], ["--pairs"], ["--coarsenings"], ["--no-close"]]
    commands = []
    for i, rays in enumerate(["dim2_two_bases", "ks18", "peres33"]):
        for j, sub in enumerate(SUBCOMMANDS):
            commands.append([sub, "--rays", rays] + flags[(i + j) % len(flags)])
    no_bases = tmp_path / "no_bases.json"
    no_bases.write_text(json.dumps(
        {"dim": 3, "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [1, -1, 0]]}))
    commands.append(["ks-check", "--rays", str(no_bases)])
    commands.append(["verify-axioms", "--rays", "peres33", "--state", "diag:0,1/2,1/2",
                     "--r", "1/2"])
    commands.append(["intervals", "--rays", "ks18", "--state", "basis-0", "--r", "1/2"])
    built = tmp_path / "built.json"
    commands.append(["build-poset", "--rays", "dim2_two_bases", "--output", str(built)])
    return commands


def read_back(tmp_path) -> list:
    """Commands on the poset that `sweep` wrote, read back as a float
    poset file, with pure and density-matrix-file states, then ``report``."""
    poset = tmp_path / "poset.json"
    poset.write_text(json.dumps(json.loads((tmp_path / "built.json").read_text())["poset"]))
    rho = tmp_path / "rho.json"
    rho.write_text(json.dumps({"dim": 2, "re": [[0.75, 0], [0, 0.25]], "im": [[0, 0], [0, 0]]}))
    commands = [[sub, "--poset", str(poset)] for sub in SUBCOMMANDS]
    commands.append(["intervals", "--poset", str(poset), "--state", "vec:1,2"])
    commands.append(["valuate", "--poset", str(poset), "--state", str(rho), "--eps", "1e-8"])
    commands.append(["report", str(tmp_path / "built.json")])
    return commands


def test_every_function_is_reached_or_kept(tmp_path):
    reached = reached_names(sweep(tmp_path))
    reached |= reached_names(read_back(tmp_path))
    defined = defined_names()
    unreached = defined - reached
    assert sorted(unreached - set(KEEP)) == []
    assert sorted(set(KEEP) - defined) == []
    assert sorted(set(KEEP) & reached) == []


def test_the_guard_sees_what_it_must(tmp_path):
    """The guard's own parts: nested functions and properties are defined
    names, and a command that reaches a name records it."""
    defined = defined_names()
    assert {"ks.discover_bases.<locals>.extend", "contexts.Context.n_atoms",
            "cli.main"} <= defined
    assert not any(name.rsplit(".", 1)[-1].startswith("__") for name in defined)
    reached = reached_names([["ks-check", "--rays", "dim2_two_bases"]])
    assert {"cli.main", "ks.search_sections", "contexts.Context.n_atoms"} <= reached
    assert "ks.discover_bases" not in reached
