#!/usr/bin/env python3
"""Per-level energy accounting and the scenario runner.

Cascade models are usually read through the energy they hold at each
scale.  This script solves a three-level problem, prints the energy per
tree depth over time, and then drives the same machinery through the
scenario config layer the CLI uses, ending with the files a run writes.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import ultracascade as uc

rng = np.random.default_rng(11)

print("== energy drains down the levels ==")
tree = uc.build_tree({"p": 2, "depth": 3})
basis = uc.build_basis(tree)
interaction = uc.Kernel.power(tree, 0.9, 0.5)
dissipation = uc.Kernel.power(tree, 1.0, 0.3)
system = uc.assemble(tree, basis, interaction, dissipation)

# every slot in slot order: the field is one coefficient vector
v0 = uc.WaveletField(basis, [complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
                             for _ in range(basis.n_slots)])

traj = uc.solve_recurrent(system, v0, t_end=2.0, dt=1e-3)
rows = uc.energy_by_level(traj)
levels = sorted(set(int(d) for _, d, _ in rows))
print(f"  depths carrying wavelets: {levels}")
print("  t      " + "".join(f"depth {d}    " for d in levels))
by_time = {}
for t, d, e in rows:
    by_time.setdefault(t, {})[int(d)] = e
for t in (0.0, 0.5, 1.0, 2.0):
    vals = by_time[t]
    print("  " + f"{t:<6}" + "".join(f"{vals[d]:<11.5f}" for d in levels))

print()
print("== the same physics as a scenario document ==")
scenario = {
    "tree": {"p": 2, "depth": 3},
    "interaction": {"type": "power", "a": [0.9, 0.0], "b": 0.5},
    "dissipation": {"type": "power", "a": [1.0, 0.0], "b": 0.3},
    "basis": "gram-schmidt",
    "initial": {"wavelets": [["", 0, 0.4, 0.1], ["0", 0, -0.3, 0.2]]},
    "t_end": 2.0,
    "dt": 0.001,
    "solver": "all",
    "oracles": {"check_eigen": True, "check_phi": True, "check_cross": True},
}

with tempfile.TemporaryDirectory() as workdir:
    work = Path(workdir)
    path = work / "demo.json"
    path.write_text(json.dumps(scenario, indent=2), encoding="utf-8")

    cfg = uc.load_config(path)
    scen = uc.build_scenario(cfg)
    print(f"  parsed: {scen.system.n_slots} slots, "
          f"{scen.system.n_couplings} couplings, hash "
          f"{uc.config_hash(cfg)[:12]}...")

    print()
    print("== and through the command line ==")
    # relative paths from the work directory, so no temporary path is
    # printed; the commands import the package this script imported
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(uc.__file__).resolve().parents[1]), env.get("PYTHONPATH"),
    ]))
    for argv in (["validate", path.name],
                 ["run", path.name, "--out-dir", "out"],
                 ["oracle", path.name]):
        proc = subprocess.run(
            [sys.executable, "-m", "ultracascade", *argv],
            capture_output=True, text=True, cwd=work, env=env,
        )
        print(f"  $ ultracascade {' '.join(argv[:1])} ...   (exit {proc.returncode})")
        for line in proc.stdout.strip().splitlines():
            print(f"    {line}")

    summary = json.loads((work / "out" / "demo_summary.json").read_text())
    print()
    print(f"  summary says cross-solver disagreement "
          f"{summary['cross_disagreement']['max']:.2e} and oracle checks "
          f"{'pass' if all(c['pass'] for c in summary['oracle_checks'].values()) else 'FAIL'}")
    with open(work / "out" / "demo_trajectory.csv", encoding="utf-8") as fh:
        header = fh.readline().strip()
    print(f"  trajectory columns: {header[:72]}...")
