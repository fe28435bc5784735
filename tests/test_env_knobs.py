"""Guard against new ``REPRO_*`` environment knobs.

Every env variable the package reads is a second, invisible way to
configure a run, and each one has to be threaded through sweep env
snapshots, cache keys and the benchmark's environment checks.  This test
fixes the set, so adding a knob means editing this list in review.
"""

import ast
import re
from pathlib import Path

import repro

ALLOWED = {"REPRO_LINT", "REPRO_JOBS", "REPRO_SWEEP_CACHE",
           "REPRO_SWEEP_CACHE_MAX_MB"}

_KNOB = re.compile(r"REPRO_[A-Z_]+")


def _env_literals():
    found = {}
    for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and _KNOB.fullmatch(node.value)):
                found.setdefault(node.value, path.name)
    return found


def test_env_knobs_are_exactly_the_allowed_set():
    found = _env_literals()
    assert set(found) == ALLOWED, found
