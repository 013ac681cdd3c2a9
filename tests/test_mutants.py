"""The mutation gate: every mutant of ``solver.py`` listed here weakens a
bound or a cover rule, and the tier-1 solver tests must catch it.

Each mutant replaces one piece of text, found exactly once in
``solver.py``, in a copy of ``src/`` and ``tests/`` under a temporary
directory. The tier-1 solver files then run on that copy in a subprocess,
with ``-x`` and a fixed hypothesis seed, and must fail; the unmutated copy
runs the same way and must pass, so a failure is the mutant's. Stretch
only: each run takes several seconds.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import genpos

SRC = Path(genpos.__file__).parent
TESTS = Path(__file__).parent
FILES = ["test_solver.py", "test_invariants.py", "test_symmetry.py"]

# (name, old text, new text)
MUTANTS = [
    (
        "triple-costs-one",  # an at-most-two part takes one unit of room
        "                        return None\n                    room -= 1\n",
        "                        return None\n",
    ),
    ("triple-test-inverted", "W = row[z] & C", "W = ~row[z] & C"),
    ("child-room-one-less", "frame = [cands, Q, None, C, cost]", "frame = [cands, Q, None, C, cost - 1]"),
    ("tail-bound-one-less", "room + R.bit_count()) > best_size", "room + R.bit_count() - 1) > best_size"),
    # the next three show only in node counts, pinned on K5xK5xK5
    (
        "tail-bound-without-C",
        "min(C.bit_count(), room + R.bit_count()) > best_size",
        "room + R.bit_count() > best_size",
    ),
    ("grow-without-qu", "K &= C & (row[u] | qu)", "K &= C & row[u]"),
    ("pair-term-without-qu", "K &= blocked[p][u] | Q[p] | qu", "K &= blocked[p][u] | Q[p]"),
]


def _run(tmp_path: Path, old: str | None = None, new: str = "") -> subprocess.CompletedProcess:
    src = tmp_path / "src" / "genpos"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(TESTS, tmp_path / "tests", ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy(TESTS.parent / "pyproject.toml", tmp_path)
    if old is not None:
        solver = src / "solver.py"
        text = solver.read_text("utf-8")
        assert text.count(old) == 1, old
        solver.write_text(text.replace(old, new), "utf-8")
    env = {**os.environ, "PYTHONPATH": str(tmp_path / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    probe = [sys.executable, "-c", "import genpos; print(genpos.__file__)"]
    where = subprocess.run(probe, cwd=tmp_path, env=env, capture_output=True, text=True, check=True)
    assert where.stdout.strip() == str(src / "__init__.py")
    args = ["-m", "pytest", "-q", "-x", "-W", "error", "-p", "no:cacheprovider", "--hypothesis-seed=0"]
    return subprocess.run(
        [sys.executable, *args, *(f"tests/{f}" for f in FILES)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
    )


@pytest.mark.stretch
def test_unmutated_copy_passes(tmp_path):
    out = _run(tmp_path)
    assert out.returncode == 0, out.stdout[-2000:]


@pytest.mark.stretch
@pytest.mark.parametrize("old, new", [m[1:] for m in MUTANTS], ids=[m[0] for m in MUTANTS])
def test_mutant_is_caught(tmp_path, old, new):
    # exit code 1: tests ran and one failed, not a collection error
    out = _run(tmp_path, old, new)
    assert out.returncode == 1, out.stdout[-2000:]
