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
a mismatch there prints the keys that changed.  The three scenarios that
run all solver routes are also run with ``cli._usable_cpus`` patched to
1, so that the leaf route's forked and inline paths both meet the same
goldens.

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


# the scenarios that run all three solver routes: with more than one
# usable CPU a forked helper runs their leaf route, with one it runs inline
ALL_ROUTES = [s for s in regenerate.SCENARIOS
              if s.stem in ("nested_pair", "p2d6_all", "p4d3_all")]


def assert_matches_goldens(scenario: Path, tmp_path: Path) -> None:
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


@pytest.mark.parametrize("scenario", regenerate.SCENARIOS, ids=lambda p: p.stem)
def test_cli_outputs_match_goldens(scenario, tmp_path):
    assert_matches_goldens(scenario, tmp_path)


@pytest.mark.parametrize("scenario", ALL_ROUTES, ids=lambda p: p.stem)
def test_cli_outputs_match_goldens_with_the_leaf_route_inline(
    scenario, tmp_path, monkeypatch
):
    monkeypatch.setattr(regenerate.cli, "_usable_cpus", lambda: 1)
    assert_matches_goldens(scenario, tmp_path)
