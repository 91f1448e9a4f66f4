"""What every command pays before and after its own work: the modules the
CLI imports, the context-id hash, and the report emitter.

Context ids are the sha256 of their atoms' key bytes, taken with CPython's
built-in hash module so that no process loads OpenSSL; they must equal
hashlib's digest. Reports go through ``cli._json_text``, which must equal
``json.dumps(obj, sort_keys=True, indent=1)`` on every value it accepts
and raise TypeError on any other.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import float_poset_json
from qcontexts import cli
from qcontexts.contexts import ContextPoset

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = ["dim2_two_bases", "ks18", "peres33"]


def test_cli_import_leaves_out_hashlib_and_typing():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    code = ("import sys, qcontexts.cli; "
            "print(sorted({'hashlib', '_hashlib', 'typing'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def assert_hashlib_ids(poset):
    for cid, v in poset.contexts.items():
        digest = hashlib.sha256(b"".join(a.key_bytes for a in v.atoms)).hexdigest()[:16]
        assert cid == v.id == digest


@pytest.mark.parametrize("name, option", list(product(FIXTURES, ["", "--pairs", "--coarsenings"])))
def test_context_ids_are_hashlib_sha256(name, option):
    args = cli.build_parser().parse_args(["build-poset", "--rays", name, *option.split()])
    assert_hashlib_ids(cli._load_poset(args))


def test_float_context_ids_are_hashlib_sha256(tmp_path):
    assert_hashlib_ids(ContextPoset.from_json(float_poset_json(501, str(tmp_path))))


SPECIAL_FLOATS = [-0.0, 0.0, 1e-300, 1e300, 5e-324, math.nan, math.inf, -math.inf]
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(), st.sampled_from(SPECIAL_FLOATS),
    st.text(), st.text(st.characters(max_codepoint=0x1f)),
)
trees = st.recursive(
    scalars,
    lambda children: st.one_of(st.lists(children, max_size=5),
                               st.dictionaries(st.text(), children, max_size=5)),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(trees)
def test_emitter_equals_json_dumps(obj):
    assert cli._json_text(obj) == json.dumps(obj, sort_keys=True, indent=1)


@pytest.mark.parametrize("obj", [
    {}, [], "", {"a": {}, "b": []}, [[], {}], {"é\n\x00 ": "퟿\U0001f600\t"},
])
def test_emitter_on_empty_containers_and_escapes(obj):
    assert cli._json_text(obj) == json.dumps(obj, sort_keys=True, indent=1)


@pytest.mark.parametrize("obj", [(1, 2), {"a": (1,)}, {1: "a"}, [{None: 0}], {"a": {1.5: 0}},
                                 {1, 2}, b"x"])
def test_emitter_rejects_other_values(obj):
    with pytest.raises(TypeError):
        cli._json_text(obj)
