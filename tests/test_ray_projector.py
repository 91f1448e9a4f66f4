"""Exact ray projectors built in integers, and exact commands without numpy.

On the exact backend `Projector.from_ray` scales the ray to w over
Z[sqrt 2][i] and forms P = M / N in integers (`linalg._ray_ints`), with
idempotency decided as M M == N M. It is checked here against the
`ExactComplex` formula v v* / <v, v> it replaced, kept below as the
reference. CLI commands never import numpy, on either backend, unless they
read a density-matrix file or a `diag:` state, and the CLI never imports
`dataclasses` or the modules it pulls in.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import float_workload

from qcontexts import linalg
from qcontexts.linalg import (
    HermitianOperator,
    Projector,
    ValidationError,
    _check_idempotent_ints,
    _exact_trace_parts,
    _ray_ints,
)
from qcontexts.scalars import EC_ZERO, ExactComplex, QSqrt2, exact_entry

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def reference_from_ray(vec) -> Projector:
    """v v* / <v, v> entry by entry over ExactComplex, idempotency checked
    by the full exact matrix product."""
    v = [exact_entry(x) for x in vec]
    n = sum((x.conj() * x for x in v), EC_ZERO)
    if n.is_zero():
        raise ValidationError("zero ray")
    dim = len(v)
    data = tuple(tuple(v[i] * v[j].conj() / n for j in range(dim)) for i in range(dim))
    return Projector(HermitianOperator.from_entries(data, "exact", validate=False))


ints = st.integers(-9, 9)
fractions = st.builds(lambda p, q: f"{p}/{q}", st.integers(-9, 9), st.integers(1, 9))
rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
reals = st.builds(QSqrt2, rationals, rationals)
entries = st.one_of(
    ints,
    fractions,
    st.lists(st.one_of(ints, fractions), min_size=2, max_size=2),  # [a, b]: a + b sqrt 2
    st.builds(ExactComplex, reals, reals),
    st.sampled_from([0, 0, "0/5", [0, 0]]),  # zero entries are common in ray sets
)


def rays(dim):
    return st.lists(entries, min_size=dim, max_size=dim)


@st.composite
def ray_with_partners(draw):
    dim = draw(st.integers(1, 4))
    ray = draw(rays(dim))
    others = draw(st.lists(rays(dim), min_size=1, max_size=3))
    return ray, others


@settings(max_examples=120, deadline=None)
@given(ray_with_partners())
@example(([0, "0/3", [0, 0]], [[1, 0, 0]]))
@example(([], [[]]))
def test_integer_ray_projector_matches_exact_complex_formula(case):
    ray, others = case
    try:
        ref = reference_from_ray(ray)
    except ValidationError as exc:
        with pytest.raises(ValidationError, match=str(exc)):
            Projector.from_ray(ray, "exact")
        return
    p = Projector.from_ray(ray, "exact")
    assert p.matrix.data == ref.matrix.data
    assert p.canonical_key == ref.canonical_key
    assert p.rank == ref.rank == 1
    partners = [ref]
    for v in others:
        try:
            partners.append(reference_from_ray(v))
        except ValidationError:
            pass
    partners.append(Projector.from_span(
        [[exact_entry(x) for x in v] for v in [ray] + others], "exact"))
    for q in partners:
        assert _exact_trace_parts(p.matrix, q.matrix) == _exact_trace_parts(ref.matrix, q.matrix)
        assert _exact_trace_parts(q.matrix, p.matrix) == _exact_trace_parts(q.matrix, ref.matrix)


def test_integer_idempotency_check_rejects_a_tampered_matrix():
    m, n = _ray_ints([1, [0, 1], "1/2"])
    _check_idempotent_ints(m, n)
    with pytest.raises(ValidationError, match="not idempotent"):
        _check_idempotent_ints(m, n + 1)
    # still Hermitian, no longer a multiple of a projector
    a, b, c, e = m[0][1]
    tampered = [list(row) for row in m]
    tampered[0][1] = (a + 1, b, c, e)
    tampered[1][0] = (a + 1, b, -c, -e)
    with pytest.raises(ValidationError, match="not idempotent"):
        _check_idempotent_ints(tampered, n)


def test_from_ray_checks_idempotency(monkeypatch):
    # an (M, N) from `_ray_ints` always passes, so hand from_ray a bad one
    m, n = _ray_ints([1, [0, 1], "1/2"])
    monkeypatch.setattr(linalg, "_ray_ints", lambda vec: (m, n + 1))
    with pytest.raises(ValidationError, match="matrix is not idempotent"):
        Projector.from_ray([1, [0, 1], "1/2"], "exact")


def _python(code: str, cwd) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, cwd=str(cwd), timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout)


def test_exact_commands_do_not_import_numpy(tmp_path):
    code = """
import json, sys
from qcontexts.cli import main
codes = [main([cmd, "--rays", "ks18", "--output", cmd + ".json"])
         for cmd in ("ks-check", "build-poset", "valuate", "intervals", "verify-axioms")]
codes.append(main(["intervals", "--rays", "ks18", "--state", "vec:1,1,0,0", "--output", "i.json"]))
codes.append(main(["build-poset", "--rays", "dim2_two_bases", "--output", "dim2.json"]))
print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules}))
"""
    assert _python(code, tmp_path) == {"codes": [0] * 7, "numpy": False}


def test_cli_imports_neither_dataclasses_nor_numpy(tmp_path):
    code = """
import json, sys
names = ("dataclasses", "inspect", "ast", "dis", "tokenize", "numpy")
import qcontexts.cli
after_import = [n for n in names if n in sys.modules]
code = qcontexts.cli.main(["ks-check", "--rays", "ks18", "--output", "ks18.json"])
print(json.dumps({"import": after_import, "code": code,
                  "run": [n for n in names if n in sys.modules]}))
"""
    assert _python(code, tmp_path) == {"import": [], "code": 0, "run": []}


def test_float_poset_commands_do_not_import_numpy(tmp_path):
    # a d = 3 poset with entries such as 1/3 and 1/sqrt(2) read back as
    # floats, and the d = 5 benchmark poset of generic floats
    from qcontexts.cli import main

    assert main(["build-poset", "--rays", "peres33", "--pairs",
                 "--output", str(tmp_path / "peres.json")]) == 0
    with open(tmp_path / "peres.json") as fh:
        poset = json.load(fh)["poset"]
    with open(tmp_path / "peres_poset.json", "w") as fh:
        json.dump(poset, fh)
    path, psi = float_workload(501, str(tmp_path))
    runs = [[cmd, "--poset", "peres_poset.json", "--state", state]
            for cmd in ("verify-axioms", "valuate", "intervals")
            for state in ("vec:1,1,0", "basis-1", "maximally-mixed")]
    runs += [[cmd, "--poset", path, "--state", state]
             for cmd in ("verify-axioms", "valuate", "intervals")
             for state in (psi, "basis-2", "maximally-mixed")]
    runs += [[cmd, "--poset", f] for cmd in ("build-poset", "ks-check")
             for f in ("peres_poset.json", path)]
    code = f"""
import json, sys
from qcontexts.cli import main
codes = [main(argv + ["--output", "out.json"]) for argv in {runs!r}]
print(json.dumps({{"codes": codes, "numpy": "numpy" in sys.modules}}))
"""
    assert _python(code, tmp_path) == {"codes": [0] * len(runs), "numpy": False}
