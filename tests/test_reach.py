"""Reachability guard: every function in src/robinsym is entered by a command.

A fresh interpreter runs the CLI subcommands and a small `verify` config
(all five theorems, all three sources, a non-integer k) under
`sys.setprofile`.  Every `def` of the package must be entered, apart from
the allow-list, each entry with its reason.  Code that only tests call
belongs in tests/ (`proof_oracle.py`, `raster_oracle.py`).
"""

import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import robinsym

PACKAGE = Path(robinsym.__file__).resolve().parent

ALLOWED = {
    "fem.SolverError.__init__": "raised only when a solve fails",
    "radial.ball_closed_forms.u": "the disc profile; the CLI prints only the torsion",
}

CONFIG = """\
[run]
domains = disc r=1; rect w=2 h=0.5
ks = 0.75
sources = const; radial; bump
h = 0.3
[gamma]
gamma2 = 16.0
provenance = reachability guard
"""

# a regular 100-gon at h = 0.7 is its own coarsest mesh, of 301 nodes: its
# solve aggregates below it
_HUNDRED_GON = "polygon " + " ".join(
    f"{math.cos(math.pi * k / 50):.6f},{math.sin(math.pi * k / 50):.6f}" for k in range(100))

COMMANDS = [
    ["mesh", "--domain", "polygon 0,0 1,0 1.2,0.8 0,1", "--h", "0.3", "--out", "p.txt"],
    ["mesh", "--domain", "polygon 0,0 3,0 3,2 2,2 2,1 1,1 1,2 0,2", "--h", "0.5",
     "--refine", "1"],
    ["asymmetry", "--domain", "polygon 0,0 2,0 2,1 1,1 1,2 0,2"],
    ["solve", "--domain", "stadium l=1 r=0.5", "--h", "0.3", "--refine", "1", "--f", "bump",
     "--out", "u.txt"],
    ["solve", "--domain", _HUNDRED_GON, "--h", "0.7"],
    ["oracle", "--kind", "torsion"],
    ["oracle", "--kind", "eigen"],
    ["oracle", "--kind", "profile", "--samples", "9"],
    ["verify", "--config", "run.cfg", "--out", "reports"],
    ["verify", "--out", "default"],
]


def _defs(node, prefix):
    """(qualified name, first line) of every def below node; a decorated
    def starts at its first decorator, as its code object does."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            name = f"{prefix}.{child.name}"
            if isinstance(child, ast.FunctionDef):
                yield name, min([child.lineno] + [d.lineno for d in child.decorator_list])
            yield from _defs(child, name)


def _run_commands():
    """Run COMMANDS in the current directory and print, as JSON, the (file,
    first line) of every package function entered."""
    from robinsym.cli import main

    entered = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(str(PACKAGE)):
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    Path("run.cfg").write_text(CONFIG)
    stdout, sys.stdout = sys.stdout, sys.stderr  # the commands' own output
    sys.setprofile(profile)
    try:
        codes = [main(argv) for argv in COMMANDS]
    finally:
        sys.setprofile(None)
        sys.stdout = stdout
    assert codes == [0] * len(COMMANDS), codes
    print(json.dumps(sorted(entered)))


def test_every_package_function_is_reached_by_a_command(tmp_path):
    path = os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
    res = subprocess.run([sys.executable, __file__], cwd=tmp_path, env=env, check=True,
                         capture_output=True, text=True)
    entered = {tuple(e) for e in json.loads(res.stdout)}
    missed = {name for path in PACKAGE.glob("*.py")
              for name, line in _defs(ast.parse(path.read_text()), path.stem)
              if (str(path), line) not in entered}
    assert sorted(missed - ALLOWED.keys()) == []
    assert sorted(ALLOWED.keys() - missed) == []


if __name__ == "__main__":
    _run_commands()
