"""Every script under ``scripts/`` still imports and parses ``--help``,
``scripts/kernel_times.py`` times every kernel it names, the block
search and the hw oracle still give the answers
``scripts/solve_equivalence.py`` pins, the constrained optimizer those
``scripts/optimizer_equivalence.py`` pins, and compiled plans those
``scripts/plan_equivalence.py`` pins."""

import importlib.util
import json
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


def test_kernel_times_runs_once_on_h2():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "kernel_times.py"), "--repeats", "1",
         "--graphs", "H2"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout.splitlines()[-1])
    shared = {"_intersections", "candidate_index", "_any_balanced"}
    assert got["repeats"] == 1
    assert {op: set(ms) for op, ms in got["ms"].items()} == {
        f"H2 L{level} k={k}": shared | (
            {"_separator_unions", "_component_entries"} if level == 0 else {"_cover_unions"})
        for level in (0, 1) for k in (2, 3)
    }
    assert all(t >= 0 for ms in got["ms"].values() for t in ms.values())


# The digests of ``scripts/solve_equivalence.py``: verdicts, ``evals``,
# basis tables and trees of ``solve``, and the bag sets it runs on.  A
# change to any of them is a change to the answers, not a speed-up.
# The ``verdicts`` digests hash verdicts and trees only; they hold when
# a change decides fewer blocks for the same answers.  ``bag sets``
# hashes the bag sets without their orders; it holds when a change only
# reorders the bag layer's lists.
SOLVE_DIGESTS = {
    # The balanced-bag check's break-even trigger ends the gallery's three
    # rejects after 70, 71 and 142 evals; their verdicts and every other
    # digest are unchanged.
    "gallery": "9f19c487c68aa10a7740089acbb9a432fb75503bdf0228d60f7ff4735c0809c4",
    "gallery verdicts": "21f21af872cab754079180316cde9401a41db34a8cfa9e34d9bb992050f268fe",
    "random": "2efd3deb0692edca51d9b579763cfe17cc7d46f2ad3f49580835588d36c46394",
    "random verdicts": "7f75c8d5e27ab30b0c9867fb367429e559210891124766ab23317957b14f6921",
    "cycles": "9d8f880dfccd9b870f567775acdc8061fbd2c2c00e53a0a0592b82c58cc27749",
    "cycles verdicts": "17f3d8af5f0dd0026e213770c1335355d68077d1b4f1394063b2a08dd2a175f7",
    "bags": "c11a4e5af22880864f188f7f5cf821873c5d46f20ca070ef2f18eb7a35ca5d36",
    "bag sets": "8b1775127fef2221cf9428d42a1909cffdae77505be4ac56603750b9c913d731",
}
# ``hw_leq(h, k).to_text()`` (or None) over the script's 946 hw cases.
HW_DIGEST = "49d0ff57c2e7f9fb343ba9af26a3d00a0089233cbd39412590eb4b54aab43def"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_solve_answers_are_pinned():
    got = {which: digest
           for which, (_, _, digest) in _load("solve_equivalence").solve_digests().items()}
    assert got == SOLVE_DIGESTS


def test_hw_answers_are_pinned():
    runs, _, digest = _load("solve_equivalence").hw_digest()
    assert (runs, digest) == (946, HW_DIGEST)


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


# The digests of ``scripts/optimizer_equivalence.py``: ``full`` (verdict,
# sort key, tree, table size), ``tree`` (verdict, tree) and ``answers``
# (verdict, sort key, tree) of ``solve_constrained`` per input and
# (constraint, order) pairing.  ``full`` moves when a change reaches
# fewer blocks for the same answers; ``tree`` and ``answers`` do not.
OPTIMIZER_DIGESTS = {
    "queries": {
        "AlwaysTrue+trivial": ("609fd2118213cb75", "9020a6f45cf5fb66", "c51f1f382dc7d424"),
        "ConnectedCover+cost": ("743e3006559389a8", "032a5f767c1e5a08", "672f9c6af1afd6c0"),
        "ShallowCyclicity(1)+cyclicity": ("a0943aaf08611ea1", "9020a6f45cf5fb66", "65ae7c8054109fb0"),
        "PartitionClustering+partition": ("05fc609ad0b2496e", "f79600ebf927fead", "aa2fd7d98d6fe039"),
        "PartitionClustering+partition(stats)": ("07b315541f54b15e", "bcadd8044655a626", "a6237553a3c30267"),
    },
    "random": {
        "AlwaysTrue+trivial": ("b3ae84c0b15fe657", "cf1a0be4731932b2", "fed138e981c82627"),
        "ConnectedCover+cost": ("0683e62293a47f85", "afa2b21f53934e5c", "979ab7f479f3bf8e"),
        "ShallowCyclicity(1)+cyclicity": ("519bc5057c7edc50", "73fffe1a9faa1c87", "1e206d71eceb944b"),
        "PartitionClustering+partition": ("da273ed9a943ed49", "41e7ac59d0e49d7c", "af563812ad88d61b"),
        "PartitionClustering+partition(stats)": ("10476ccce8ef1926", "d62cd682a6a35f31", "5c995b64191b150e"),
    },
}


def test_optimizer_answers_are_pinned():
    digests = _load("optimizer_equivalence").optimizer_digests()
    assert {which: got for which, (_, _, got) in digests.items()} == OPTIMIZER_DIGESTS
