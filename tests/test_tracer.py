"""The benchmark's tracer still finds every function it patches.

`perfbench/tracer.py` wraps internal functions by name where their callers
look them up, and raises when one has moved. A refactor that renames or
re-routes one of them would break the per-layer benchmark silently; this
runs the tracer on small commands and checks that the hot layers are seen.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")


def trace(tmp_path, *argv):
    out = tmp_path / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, TRACER, str(out), *argv], capture_output=True,
                          text=True, env=env, cwd=str(tmp_path), timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(out.read_text())["counts"]


# The presheaf commands take each Born weight once, in one `stage_weights`
# pass: dim2_two_bases has 5 atoms over its 3 stages.
ONE_WEIGHTS_PASS = {"linalg.born_probability#calls": 5, "valuations.stage_weights#calls": 1}


@pytest.mark.parametrize("argv, layers", [
    (["ks-check"], ["linalg.leq#calls"]),
    # the build derives its identity, so intervals asks no leq: it still
    # traces the rays' orthogonality
    (["intervals", "--state", "basis-0"],
     ["linalg.orthogonal_to#calls", "linalg.born_probability#calls",
      "valuations.stage_weights#calls"]),
    (["verify-axioms"],
     ["linalg.leq#calls", "linalg.born_probability#calls", "valuations.stage_weights#calls"]),
])
def test_tracer_sees_hot_layers(tmp_path, argv, layers):
    counts = trace(tmp_path, *argv[:1], "--rays", "dim2_two_bases", *argv[1:])
    assert all(counts.get(name, 0) > 0 for name in layers), counts
    if argv[0] != "ks-check":
        assert {name: counts.get(name) for name in ONE_WEIGHTS_PASS} == ONE_WEIGHTS_PASS
