"""Default reports stay byte for byte.

Reports embed their config and use sorted keys, so a refactor of the
presheaf layers that keeps every verdict, count and counterexample keeps
each report's bytes. The digests below were taken before the presheaf
tables were shared across each command's checks, the next two before
float operators became flat tuples of Python floats, and the last three
before exact operators became their integer form. The `--poset` runs cover
the float backend, `build-poset --poset` its `to_json`, and `build-poset
--rays ks18 --coarsenings` the exact `to_json` of merged atoms. The last
two were taken before exact block sums were found in the atom table by
their parts' bits: `build-poset --rays ks18` holds the meet closure's
merged rank-3 atoms, and `--pairs --coarsenings` the coarsenings of the
pair contexts. Their ids are the whole command line. The poset
files sit at fixed relative paths, because the config embeds them. In
SIGNED_ZERO an atom is written once with 0.0 and once with -0.0, and the
second context, with the same id as the first, replaces it: its -0.0
entries must reach the report. Each report is also compared with
``json.dumps(report, sort_keys=True, indent=1)``, which the CLI's own
emitter replaces.
"""

import hashlib
import json

import pytest

from qcontexts import cli
from qcontexts.cli import main

POSET = "peres33_pairs_poset.json"
SIGNED_ZERO = "signed_zero_poset.json"
SIGNED_ZERO_JSON = {"dim": 2, "contexts": [
    {"atoms": [{"dim": 2, "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]},
               {"dim": 2, "re": [[0, 0], [0, 1]], "im": [[0, 0], [0, 0]]}]},
    {"atoms": [{"dim": 2, "re": [[0.5, 0.5], [0.5, 0.5]], "im": [[0, 0], [0, 0]]},
               {"dim": 2, "re": [[0.5, -0.5], [-0.5, 0.5]], "im": [[0, 0], [0, 0]]}]},
    {"atoms": [{"dim": 2, "re": [[0, 0], [0, 1]], "im": [[0, 0], [0, 0]]},
               {"dim": 2, "re": [[1, -0.0], [0, 0]], "im": [[0, -0.0], [0.0, 0]]}]},
]}

REPORTS = [
    (["verify-axioms", "--rays", "peres33", "--pairs", "--state", "vec:1,1,0"],
     "95805d541b73a0f0a14bd5a8de8e2f233242eddecfb353a3557a4e7d1e50c7cf"),
    (["intervals", "--rays", "ks18", "--coarsenings"],
     "1d390258d92c0c3425a88fc171dbe2c6d757029508b82555730e9c34be27219d"),
    (["valuate", "--rays", "dim2_two_bases", "--state", "basis-0"],
     "8349cfd944b24999fa50e7ea19973e74240010dd0dc75a119b1b0435080cebc4"),
    (["verify-axioms", "--poset", POSET],
     "8221c3679f07b7e62d7800f7144bb4aac164ecad031dcab71f078eba64a70795"),
    (["intervals", "--poset", POSET],
     "ec403422e2da67dac8e730f18d7b182608e6268e6d8b5e5d1dddd46593ed886d"),
    (["build-poset", "--poset", POSET],
     "6110cc3d4a14609a3c1ff8433d0ad12726deb0d3f346140f9b67d3327c8d36c7"),
    (["valuate", "--poset", POSET],
     "c83cfaee141680a2f192fb1c225dae28491bb06a6823fe2e887be89054f21c5d"),
    (["ks-check", "--rays", "peres33", "--pairs"],
     "6d2016cf89ab5ae9840764d81c40fd429ee5552e79f09cf433b3438851738b4c"),
    (["build-poset", "--rays", "ks18", "--coarsenings"],
     "ff55f50aa08384399f006ee7bcf7e18411e8b982843655469f788e0497455de0"),
    (["build-poset", "--poset", SIGNED_ZERO],
     "3e72e1b44b3fb39bb79a4ff9ff6d1d626f2002e0b7919c4070e13366b53665a8"),
    (["build-poset", "--rays", "ks18"],
     "d72fa92cc043267d508c16905b421aa7f676edfc6748f96151620e4d82e891e0"),
    (["build-poset", "--rays", "ks18", "--pairs", "--coarsenings"],
     "08df61cb1a808969601289ad9ffb7357fde51734cf55fee03aa8214c45aa97a5"),
]


def run(capsys, argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def report_ids(reports):
    """Each report's first two words, or three with SIGNED_ZERO; the whole
    command line where those name an earlier report already."""
    ids = []
    for argv, _ in reports:
        short = " ".join(argv[:3] if SIGNED_ZERO in argv else argv[:2])
        ids.append(" ".join(argv) if short in ids else short)
    return ids


def write_posets(tmp_path, capsys, argv):
    if POSET in argv:
        code, out = run(capsys, ["build-poset", "--rays", "peres33", "--pairs"])
        assert code == 0
        (tmp_path / POSET).write_text(json.dumps(json.loads(out)["poset"]))
    (tmp_path / SIGNED_ZERO).write_text(json.dumps(SIGNED_ZERO_JSON))


@pytest.mark.parametrize("argv, digest", REPORTS, ids=report_ids(REPORTS))
def test_default_report_bytes(tmp_path, capsys, monkeypatch, argv, digest):
    monkeypatch.chdir(tmp_path)
    write_posets(tmp_path, capsys, argv)
    code, out = run(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [a for a, _ in REPORTS], ids=report_ids(REPORTS))
def test_report_emitter_equals_json_dumps(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    write_posets(tmp_path, capsys, argv)
    reports = []
    emit_text = cli._json_text
    monkeypatch.setattr(cli, "_json_text", lambda obj: reports.append(obj) or emit_text(obj))
    code, out = run(capsys, argv)
    assert code == 0 and len(reports) == 1
    assert out == json.dumps(reports[0], sort_keys=True, indent=1) + "\n"
