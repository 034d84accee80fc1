"""Strict-mypy gate over the annotated core modules.

CI installs mypy and runs this for real (the ``static-analysis`` job);
locally the test skips when mypy is absent rather than failing — the
container deliberately ships no type-checker.  The module list here and
in ``mypy.ini``/CI must stay in sync.
"""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

#: The acceptance surface: strict typing on the public seam, the service
#: layer built on top of it, the two foundational leaf modules, and the
#: population DUT model.
STRICT_TARGETS = [
    "src/repro/api",
    "src/repro/service",
    "src/repro/engine/seeding.py",
    "src/repro/intervals.py",
    "src/repro/dut/population.py",
]


@pytest.mark.skipif(
    importlib.util.find_spec("mypy") is None,
    reason="mypy is not installed in this environment (CI runs the gate)",
)
def test_strict_mypy_on_core_modules():
    result = subprocess.run(
        [sys.executable, "-m", "mypy", "--config-file", "mypy.ini",
         *STRICT_TARGETS],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, (
        f"mypy gate failed:\n{result.stdout}\n{result.stderr}"
    )


def test_py_typed_marker_ships():
    assert (REPO_ROOT / "src" / "repro" / "py.typed").exists()


def test_setup_ships_py_typed():
    text = (REPO_ROOT / "setup.py").read_text(encoding="utf-8")
    assert "py.typed" in text


def test_mypy_config_covers_targets():
    text = (REPO_ROOT / "mypy.ini").read_text(encoding="utf-8")
    for section in ("repro.api", "repro.service", "repro.engine.seeding",
                    "repro.intervals", "repro.dut.population"):
        assert section in text
