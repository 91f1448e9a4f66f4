"""The atom-table poset build against the pairwise reference builder.

``build_poset`` decides each distinct pair of atoms once, finds an exact
block sum by its parts' bits or derives its relations from them, and then
orders and meets contexts by table lookup;
``poset_reference.reference_build_poset`` decides every pair of contexts
through the projector predicates. Both must give the same contexts,
order, down-sets, restriction maps and poset JSON: on every packaged
fixture with and without pair contexts and coarsenings, on random integer
ray sets, and on the float posets of the ``presheaf-float`` benchmark
workload. Every bit of the tables the builds make must equal the
predicates too.
"""

import argparse
import contextlib
import json
import os
import subprocess
import sys
import tempfile
from itertools import product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import context_from_columns, float_poset_json, make_rng, random_unitary, rotate_pair
from poset_reference import reference_build_poset
from qcontexts import cli, contexts, ks
from qcontexts.contexts import Context, ContextPoset, build_poset
from qcontexts.linalg import HermitianOperator, Projector, _product_trace
from qcontexts.scalars import get_eps

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = ["dim2_two_bases", "ks18", "peres33"]


@contextlib.contextmanager
def reference_builder():
    """Route every poset build through the reference builder."""
    saved = contexts.build_poset, ks.build_poset
    contexts.build_poset = ks.build_poset = reference_build_poset
    try:
        yield
    finally:
        contexts.build_poset, ks.build_poset = saved


@contextlib.contextmanager
def recorded_tables():
    """The atom tables that the poset builds make while the block is open."""
    tables = []

    class Recorded(contexts._AtomTable):
        def __init__(self):
            super().__init__()
            tables.append(self)

    saved = contexts._AtomTable
    contexts._AtomTable = Recorded
    try:
        yield tables
    finally:
        contexts._AtomTable = saved


def assert_table_matches_the_predicates(table: contexts._AtomTable, note=""):
    # a sum found by bits is never interned a second time: no key is held
    # by two atoms, and each maps to its own
    assert len(table.index) == len(table.atoms), note
    assert table.index == {a.canonical_key: i for i, a in enumerate(table.atoms)}, note
    for i, p in enumerate(table.atoms):
        for j, q in enumerate(table.atoms):
            assert (table.above[i] >> j & 1) == p.leq(q), (note, i, j)
            assert (table.overlap[i] >> j & 1) == (not p.orthogonal_to(q)), (note, i, j)


def load(rays, pairs, coarsenings):
    args = argparse.Namespace(rays=rays, poset=None, close=True, pairs=pairs,
                              coarsenings=coarsenings)
    return cli._load_poset(args)


def assert_same_poset(new: ContextPoset, ref: ContextPoset, note=""):
    assert sorted(new.contexts) == sorted(ref.contexts), note
    assert new.bottom_id == ref.bottom_id, note
    assert new.leq == ref.leq, note
    assert new.down == ref.down, note
    assert list(new.restriction.items()) == list(ref.restriction.items()), note
    assert (json.dumps(new.to_json(), sort_keys=True)
            == json.dumps(ref.to_json(), sort_keys=True)), note


@pytest.mark.parametrize("name, pairs, coarsenings",
                         list(product(FIXTURES, [False, True], [False, True])))
def test_fixture_posets_match_reference(name, pairs, coarsenings):
    new = load(name, pairs, coarsenings)
    with reference_builder():
        ref = load(name, pairs, coarsenings)
    assert_same_poset(new, ref)


@pytest.mark.parametrize("name, pairs, coarsenings",
                         list(product(FIXTURES, [False, True], [False, True])))
def test_fixture_atom_masks_match_the_predicates(name, pairs, coarsenings):
    # exact atoms of equal rank are never order-tested: distinct keys are
    # distinct projectors, so neither lies under the other
    table = contexts._AtomTable()
    for v in load(name, pairs, coarsenings).contexts.values():
        table.row(v)
    assert_table_matches_the_predicates(table, name)


@pytest.mark.parametrize("name, pairs, coarsenings",
                         list(product(FIXTURES, [False, True], [False, True])))
def test_fixture_build_tables_match_the_predicates(name, pairs, coarsenings):
    # the tables of the real builds, with the bits that intern_sum derives
    # for merged meet atoms and block sums
    with recorded_tables() as tables:
        load(name, pairs, coarsenings)
    assert len(tables) == 1  # one build per command, --coarsenings included
    for table in tables:
        assert_table_matches_the_predicates(table, name)


@pytest.mark.parametrize("name, pairs", list(product(FIXTURES, [False, True])))
def test_closing_the_ray_poset_keeps_its_maximal_contexts(name, pairs):
    # a meet lies below both of its arguments, so it is never a new maximum
    rs = ks.load_rayset(name)
    closed = ks.poset_from_rayset(rs, close=True, include_pairs=pairs)
    unclosed = ks.poset_from_rayset(rs, close=False, include_pairs=pairs)
    assert len(closed) > len(unclosed) or name == "dim2_two_bases"
    assert closed.maximal_ids() == unclosed.maximal_ids()


@pytest.mark.parametrize("argv, bound", [
    # 6,729 and 7,425 calls when every distinct atom pair was traced
    (("peres33", True, False), 3364),
    (("ks18", False, True), 742),
])
def test_block_sums_are_not_traced(monkeypatch, argv, bound):
    calls = []
    for name in ("orthogonal_to", "leq"):
        original = getattr(Projector, name)

        def counting(self, other, original=original):
            calls.append(1)
            return original(self, other)

        monkeypatch.setattr(Projector, name, counting)
    load(*argv)
    assert len(calls) <= bound


def command_calls(monkeypatch, tmp_path, argv) -> dict:
    """The ``Projector.orthogonal_to``, ``Projector.leq`` and
    ``contexts._block_atom`` calls of one whole command."""
    calls = {"orthogonal_to": 0, "leq": 0, "_block_atom": 0}
    for owner, name in ((Projector, "orthogonal_to"), (Projector, "leq"),
                        (contexts, "_block_atom")):
        def counting(*args, name=name, original=getattr(owner, name)):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, counting)
    assert cli.main(argv + ["--output", str(tmp_path / "out.json")]) == 0
    return calls


def test_coarsenings_command_traces_the_rays_once(tmp_path, monkeypatch):
    # the C(18, 2) = 153 ray pairs, in the ray set's table; the coarsening
    # build starts from a copy of it and derives every block sum, the
    # identity included. 432 calls when the ray poset was built first and
    # its maximal contexts were rebuilt with their coarsenings; 279 when
    # basis discovery and the build each traced the rays
    argv = ["intervals", "--rays", "ks18", "--coarsenings"]
    assert command_calls(monkeypatch, tmp_path, argv)["orthogonal_to"] <= 153


@pytest.mark.parametrize("argv, bound", [
    # the C(18, 2) = 153 ray pairs and nothing else: the identity is the
    # sum of a basis, derived from its bits. 171 when the identity was
    # traced against the 18 rays; 279 when basis discovery and the build
    # each traced the rays
    (["ks-check", "--rays", "ks18"], 153),
    # 528 ray pairs + the pair complements' traces; 1,653 with the
    # identity's 57; 2,349 when the pair loop traced the rays a third time
    (["ks-check", "--rays", "peres33", "--pairs"], 1596),
], ids=["ks18", "peres33-pairs"])
def test_ray_commands_trace_each_ray_pair_once(tmp_path, monkeypatch, argv, bound):
    calls = command_calls(monkeypatch, tmp_path, argv)
    # the build's only leq calls were the identity's, 18 and 57
    assert calls["orthogonal_to"] <= bound and calls["leq"] == 0, calls


@pytest.mark.parametrize("argv, bound", [
    # each ray's complement, the sum of the other three atoms of either
    # basis holding it; 36 when each basis built its own
    (["ks-check", "--rays", "ks18"], 18),
    (["ks-check", "--rays", "peres33", "--pairs"], 33),  # 96 before
    # 351 when every pair generator built its block sums, though most lie
    # below a basis and were interned already
    (["intervals", "--rays", "ks18", "--pairs", "--coarsenings"], 28),
], ids=["ks18", "peres33-pairs", "ks18-pairs-coarsenings"])
def test_block_sums_are_built_only_when_new(tmp_path, monkeypatch, argv, bound):
    assert command_calls(monkeypatch, tmp_path, argv)["_block_atom"] <= bound


def diag_atom(dim, k, value=1.0):
    re = [[value if i == j == k else 0 for j in range(dim)] for i in range(dim)]
    return {"dim": dim, "re": re, "im": [[0] * dim for _ in range(dim)]}


# tr(PP) - rank P = 1.8e-8 > 10 eps for the first atom, so a tolerance test
# of P <= P fails; its trace, 1 + 9e-9, still passes projector validation
NEAR_ONE = 1.000000009
SELF_ORDER_POSETS = [
    {"dim": 2, "contexts": [{"atoms": [diag_atom(2, 0, NEAR_ONE), diag_atom(2, 1)]}]},
    # the same atom in a context and in its coarsening: the projector maps
    # must send it to itself
    {"dim": 3, "contexts": [
        {"atoms": [diag_atom(3, 0, NEAR_ONE), diag_atom(3, 1), diag_atom(3, 2)]},
        {"atoms": [diag_atom(3, 0, NEAR_ONE),
                   {"dim": 3, "re": [[0, 0, 0], [0, 1, 0], [0, 0, 1]],
                    "im": [[0] * 3 for _ in range(3)]}]}]},
]


@pytest.mark.parametrize("obj", SELF_ORDER_POSETS, ids=["dim2", "dim3-coarsening"])
def test_float_context_is_below_itself(tmp_path, capsys, obj):
    poset = ContextPoset.from_json(obj)
    assert len(poset) == len(obj["contexts"]) + 1
    assert all(poset.is_leq(cid, cid) for cid in poset.ids())
    assert all(contexts.is_subalgebra(v, v) for v in poset.contexts.values())
    path = tmp_path / "poset.json"
    path.write_text(json.dumps(obj))
    code = cli.main(["verify-axioms", "--poset", str(path), "--state", "basis-0"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["ok"], report
    # the section validator restricts through the projector order too
    code = cli.main(["ks-check", "--poset", str(path)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["section_validates"], report


@st.composite
def integer_ray_files(draw):
    dim = draw(st.integers(2, 3))
    rays = draw(st.lists(st.lists(st.integers(-1, 1), min_size=dim, max_size=dim)
                         .filter(any), min_size=1, max_size=9))
    return {"dim": dim, "rays": rays}


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(integer_ray_files(), st.booleans(), st.booleans())
def test_integer_ray_posets_match_reference(obj, pairs, coarsenings):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "rays.json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        new = load(path, pairs, coarsenings)
        with reference_builder():
            ref = load(path, pairs, coarsenings)
    assert_same_poset(new, ref)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(integer_ray_files(), st.booleans(), st.booleans())
def test_integer_ray_build_tables_match_the_predicates(obj, pairs, coarsenings):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "rays.json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        with recorded_tables() as tables:
            load(path, pairs, coarsenings)
        rs = ks.load_rayset(path)
    for table in tables:
        assert_table_matches_the_predicates(table, obj)
    closed = ks.poset_from_rayset(rs, close=True, include_pairs=pairs)
    unclosed = ks.poset_from_rayset(rs, close=False, include_pairs=pairs)
    assert closed.maximal_ids() == unclosed.maximal_ids()


@pytest.mark.parametrize("seed", range(3))
def test_float_coarsenings_match_reference(seed):
    # float block sums keep their traces: a rounded sum's relations do not
    # follow from its parts' bits
    rng = make_rng(seed)
    u = random_unitary(rng, 4)
    gens = [context_from_columns(u), context_from_columns(rotate_pair(u, 0, 1, 0.7))]
    with recorded_tables() as tables:
        new = build_poset(gens, coarsenings=True)
    assert_same_poset(new, reference_build_poset(gens, coarsenings=True))
    # the Bell(3) = 5 partitions that keep the rotated columns in one block
    # are coarsenings of both bases
    assert len(new) == 2 * 15 - 5
    (table,) = tables
    assert_table_matches_the_predicates(table, seed)


def closest_float_call(poset: ContextPoset) -> float:
    """The least distance of any |tr(PQ) - target| from 10 eps over the
    distinct atoms, for both predicates: how near a decision was to
    flipping."""
    atoms = list({a.canonical_key: a for v in poset.contexts.values() for a in v.atoms}.values())
    best = float("inf")
    for p in atoms:
        for q in atoms:
            t = _product_trace(p.matrix, q.matrix)
            for target in (0, p.rank):
                best = min(best, abs(abs(t - target) - 10 * get_eps()))
    return best


@pytest.mark.parametrize("seed", range(501, 511))
def test_float_benchmark_posets_match_reference(tmp_path, seed):
    obj = float_poset_json(seed, str(tmp_path))
    new = ContextPoset.from_json(obj)
    ref = reference_build_poset([
        Context([Projector.from_matrix(HermitianOperator.from_json(a)) for a in c["atoms"]])
        for c in obj["contexts"]])
    assert len(new) == 163 and len(new.leq) - len(new) == 1089
    try:
        assert_same_poset(new, ref)
    except AssertionError as exc:
        pytest.fail(f"seed {seed}: the builders disagree ({exc}); the closest predicate "
                    f"call is {closest_float_call(ref):.3g} from 10 eps")


def test_from_json_decides_each_atom_pair_once(tmp_path, monkeypatch):
    obj = float_poset_json(501, str(tmp_path))
    calls = []
    leq = Projector.leq

    def counting_leq(self, other):
        calls.append(1)
        return leq(self, other)

    monkeypatch.setattr(Projector, "leq", counting_leq)
    poset = ContextPoset.from_json(obj)
    n = len({a.canonical_key for v in poset.contexts.values() for a in v.atoms})
    assert n == 79
    assert 0 < len(calls) <= n * (n + 1) // 2


def test_from_json_builds_each_distinct_atom_once(tmp_path, monkeypatch):
    """Atoms are shared by their bit-exact float data: 604 atoms in the
    seed-501 file, 103 distinct, spanning 79 subspaces. A -0.0 makes an
    atom distinct, so that `to_json` gives back the sign it read."""
    obj = float_poset_json(501, str(tmp_path))
    built = []
    from_matrix = Projector.from_matrix.__func__

    def counting(cls, op):
        built.append(op)
        return from_matrix(cls, op)

    monkeypatch.setattr(Projector, "from_matrix", classmethod(counting))
    poset = ContextPoset.from_json(obj)
    atoms = [a for c in obj["contexts"] for a in c["atoms"]]
    distinct = {repr([[float(x) for x in row] for row in a["re"] + a["im"]]) for a in atoms}
    assert (len(atoms), len(distinct), len(built)) == (604, 103, 103)
    assert len({a.canonical_key for v in poset.contexts.values() for a in v.atoms}) == 79
    # the second context has the first one's id and replaces it
    first = {"dim": 2, "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]}
    second = {"dim": 2, "re": [[0, 0], [0, 1]], "im": [[0, 0], [0, 0]]}
    signed = {"dim": 2, "re": [[1, 0], [0, 0]], "im": [[0, -0.0], [0, 0]]}
    poset = ContextPoset.from_json({"dim": 2, "contexts": [{"atoms": [first, second]},
                                                           {"atoms": [signed, second]}]})
    assert len(built) == 106 and len(poset) == 2
    (v,) = [v for v in poset.contexts.values() if v.n_atoms == 2]
    assert repr(v.atoms[1].to_json()["im"]) == "[[0.0, -0.0], [0.0, 0.0]]"


def test_all_coarsenings_is_bounded():
    eye = [[int(i == j) for j in range(8)] for i in range(8)]
    v = Context([Projector.from_ray(r, "float") for r in eye])
    with pytest.raises(contexts.ValidationError, match="coarsenings"):
        contexts.all_coarsenings(v)


def test_coarsenings_above_the_bound_exit_2(tmp_path):
    # Bell(9) = 21,147 coarsenings of the one basis: refused before any is built
    f = tmp_path / "dim9.json"
    f.write_text(json.dumps({"dim": 9, "rays": [[int(i == j) for j in range(9)]
                                                for i in range(9)]}))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-m", "qcontexts.cli", "build-poset", "--rays",
                           str(f), "--coarsenings"], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 2
    lines = proc.stdout.splitlines()
    assert len(lines) == 1 and list(json.loads(lines[0])) == ["error"]
    assert "coarsenings" in lines[0]


def test_build_poset_keeps_generator_objects():
    # a later generator with the same id replaces an earlier one, and the
    # built trivial context replaces a generator equal to it
    rs = ks.load_rayset("dim2_two_bases")
    first = Context([rs.projectors[i] for i in rs.bases[0]])
    again = Context([rs.projectors[i] for i in rs.bases[0]])
    triv = Context.trivial(2, "exact")
    poset = build_poset([first, triv, again])
    assert poset.contexts[first.id] is again
    assert poset.contexts[triv.id] is not triv and poset.bottom_id == triv.id
