"""Golden outputs: every byte ``run`` writes, and the stdout of ``validate``
and ``oracle``, on six fixed scenarios.

The scenarios are the two bundled ones, the two of the benchmark's
``crosscheck`` workload at seed 7, copied into ``golden/crosscheck_seed7``,
and ``p2d9_rk`` and ``p2d12_path10`` of its ``ladder`` workload at seed 7,
copied into ``golden/ladder_seed7``, so that an edit of the benchmark's
generator moves no golden.  ``golden/goldens.json`` holds, per scenario,
the sha256 of each file ``run`` writes and the exit code and stdout of
``validate`` and ``oracle``; the ladder scenarios skip ``oracle``, whose
dense eigen check would take minutes on them.  Each ``*_summary.json`` is also kept verbatim beside it, so
a mismatch there prints the keys that changed.

The float bytes depend on the numpy build and the CPU as well as on the
code, so ``goldens.json`` names the numpy version and the machine it was
made on; on any other host the test fails and names both.  After a change
that is meant to move an output, regenerate with

    PYTHONPATH=src python tests/golden/regenerate.py

and name the outputs that moved in the change's notes.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("regenerate", GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)

GOLDENS = json.loads((GOLDEN / "goldens.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("scenario", regenerate.SCENARIOS, ids=lambda p: p.stem)
def test_cli_outputs_match_goldens(scenario, tmp_path):
    made_on, here = GOLDENS["host"], regenerate.host()
    assert here == made_on, (
        f"goldens were made with {made_on}, this host has {here}; "
        "regenerate them here with tests/golden/regenerate.py"
    )
    expected = GOLDENS["scenarios"][scenario.stem]
    got = regenerate.capture(scenario, tmp_path)
    name = regenerate.summary_name(expected)
    assert (json.loads((tmp_path / name).read_text(encoding="utf-8"))
            == json.loads((GOLDEN / name).read_text(encoding="utf-8")))
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()
    assert got == expected
