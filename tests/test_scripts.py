"""Every script under ``scripts/`` still imports and parses ``--help``,
the block search still gives the answers ``scripts/solve_equivalence.py``
pins, and compiled plans still give those ``scripts/plan_equivalence.py``
pins."""

import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", sorted((ROOT / "scripts").glob("*.py")), ids=lambda p: p.name)
def test_script_help(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(script), "--help"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage:")


# The digests of ``scripts/solve_equivalence.py``: verdicts, ``evals``,
# basis tables and trees of ``solve``, and the bag sets it runs on.  A
# change to any of them is a change to the answers, not a speed-up.
SOLVE_DIGESTS = {
    "gallery": "f9d7bd721dbbbf3584912577eab39d5c5d5abdf6c56fd8de6c48c64a3360ea7d",
    "random": "2efd3deb0692edca51d9b579763cfe17cc7d46f2ad3f49580835588d36c46394",
    "cycles": "9d8f880dfccd9b870f567775acdc8061fbd2c2c00e53a0a0592b82c58cc27749",
    "bags": "c7f6c68a2a9b546468af1dc2bda92101c730f1c2f74f8aeb0cd297dc1c080c59",
}


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_solve_answers_are_pinned():
    got = {which: digest
           for which, (_, _, digest) in _load("solve_equivalence").solve_digests().items()}
    assert got == SOLVE_DIGESTS


# The digests of ``scripts/plan_equivalence.py``: the emitted SQL and
# the answers of the plans compiled for the bundled and random queries.
PLAN_DIGESTS = {
    "queries": ("062db073daebf600", "d8cfa75bccfbeaea"),
    "random": ("5101f17fe23cb996", "e3cbcfaeff214a7a"),
}


def test_plan_answers_are_pinned():
    got = {which: (sql, answers)
           for which, (_, _, _, sql, answers) in _load("plan_equivalence").plan_digests().items()}
    assert got == PLAN_DIGESTS
