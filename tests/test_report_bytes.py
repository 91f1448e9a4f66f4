"""Default reports stay byte for byte.

Reports embed their config and use sorted keys, so a refactor of the
presheaf layers that keeps every verdict, count and counterexample keeps
each report's bytes. The digests below were taken before the presheaf
tables were shared across each command's checks, and the last two before
float operators became flat tuples of Python floats. The `--poset` runs
cover the float backend, `build-poset --poset` its `to_json`; the poset file
sits at a fixed relative path, because the config embeds it.
"""

import hashlib
import json

import pytest

from qcontexts.cli import main

POSET = "peres33_pairs_poset.json"

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
]


def run(capsys, argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.mark.parametrize("argv, digest", REPORTS, ids=[" ".join(a[:2]) for a, _ in REPORTS])
def test_default_report_bytes(tmp_path, capsys, monkeypatch, argv, digest):
    monkeypatch.chdir(tmp_path)
    if POSET in argv:
        code, out = run(capsys, ["build-poset", "--rays", "peres33", "--pairs"])
        assert code == 0
        (tmp_path / POSET).write_text(json.dumps(json.loads(out)["poset"]))
    code, out = run(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
